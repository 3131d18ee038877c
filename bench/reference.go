package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// The reference digests are compiled in, so a checkout that lacks them
// does not build and a run never depends on its working directory.
//
//go:embed reference/*.json
var referenceFS embed.FS

// refEntry pins one cell's outcome: the SHA-256 of its canonical
// summary/v1 bytes, or of its typed error text (small-scale
// thermal/dense/static is the paper's Figure 13 OOM). Label and Steps
// are for readers of the file and of a diff; the hash is the check.
type refEntry struct {
	Label  string `json:"label"`
	Kind   string `json:"kind"` // "summary" or "error"
	SHA256 string `json:"sha256"`
	Steps  int64  `json:"steps"`
}

// same compares what the check is about; a label is presentation.
func (e refEntry) same(o refEntry) bool { return e.Kind == o.Kind && e.SHA256 == o.SHA256 }

// reference is bench/reference/<workload>.json, keyed by key digest.
type reference struct {
	Workload string              `json:"workload"`
	Scale    string              `json:"scale"`
	Entries  map[string]refEntry `json:"entries"`
}

func referencePath(workload string) string {
	return filepath.Join("reference", workload+".json")
}

func loadReference(workload string) (*reference, error) {
	data, err := referenceFS.ReadFile("reference/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("no reference for workload %s (run with -update-reference): %w", workload, err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", workload, err)
	}
	if ref.Scale != scaleName {
		return nil, fmt.Errorf("reference %s was recorded at scale %q, the benchmark runs %q", workload, ref.Scale, scaleName)
	}
	return &ref, nil
}

// write stores the reference under the current directory, which must be
// bench/ (README "Regenerating the references").
func (r *reference) write() error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath(r.Workload), append(data, '\n'), 0o644)
}

// simCounts are the exact simulated statistics of a cell, read from its
// summary. A simulator speed-up may not move any of them.
type simCounts struct {
	steps, msgs, bytes, blocksLoaded, blocksPurged, prefetchIssued, seedsAdopted int64
}

func (c *simCounts) add(d simCounts) {
	c.steps += d.steps
	c.msgs += d.msgs
	c.bytes += d.bytes
	c.blocksLoaded += d.blocksLoaded
	c.blocksPurged += d.blocksPurged
	c.prefetchIssued += d.prefetchIssued
	c.seedsAdopted += d.seedsAdopted
}

func countsOf(s metrics.Summary) simCounts {
	return simCounts{
		steps: s.Steps, msgs: s.MsgsSent, bytes: s.BytesSent,
		blocksLoaded: s.BlocksLoaded, blocksPurged: s.BlocksPurged,
		prefetchIssued: s.PrefetchIssued, seedsAdopted: s.SeedsAdopted,
	}
}

// result is what one op yielded on either surface. The Server surface
// fills status and body and decodes the rest on demand; the Campaign
// surface fills the decoded fields directly.
type result struct {
	status  int
	body    []byte // raw response body; aliases the client's buffer
	source  string
	label   string
	summary []byte // canonical summary/v1 bytes
	errText string // typed deterministic failure, exclusive with summary
}

// decode parses a Server response into the result's fields.
func (r *result) decode(digest string) error {
	var resp serve.Response
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return fmt.Errorf("response is not slserve JSON: %w", err)
	}
	if len(resp.Rows) != 1 {
		return fmt.Errorf("response has %d rows, want 1", len(resp.Rows))
	}
	row := resp.Rows[0]
	if row.Digest != digest {
		return fmt.Errorf("response digest %s, request digest %s", row.Digest, digest)
	}
	r.source, r.label, r.summary, r.errText = row.Source, row.Label, row.Summary, row.Error
	return nil
}

// Failure classes. A refusal or a wrong tier is a failed op like any
// other; the traced run also reports them as serve.rejected and
// serve.src_mismatch.
const (
	failNone     = ""
	failRejected = "rejected" // 429, 503, 504
	failStatus   = "status"   // any other non-200
	failSource   = "source"   // answered by another tier than the workload is about
	failMismatch = "mismatch" // outcome differs from bench/reference
)

// verifier checks every op against the workload's reference, or, with
// -update-reference, records what it sees instead.
type verifier struct {
	ref    *reference
	source string // expected tier; "" accepts any
	record bool

	attempted atomic.Int64 // every op checked, set-up included

	mu       sync.Mutex
	failures map[string]int
	first    string // first failure, for the log
}

func newVerifier(w *workload, record bool) (*verifier, error) {
	v := &verifier{source: w.source, record: record, failures: map[string]int{}}
	if record {
		v.ref = &reference{Workload: w.name, Scale: scaleName, Entries: map[string]refEntry{}}
		return v, nil
	}
	ref, err := loadReference(w.name)
	if err != nil {
		return nil, err
	}
	for i := range w.ops {
		if _, ok := ref.Entries[w.ops[i].digest]; !ok {
			return nil, fmt.Errorf("reference %s has no entry for %s (run with -update-reference)", w.name, w.ops[i].body)
		}
	}
	v.ref = ref
	return v, nil
}

func (v *verifier) fail(class string, o *op, detail string) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.failures[class]++
	if v.first == "" {
		v.first = fmt.Sprintf("%s: %s: %s", class, o.body, detail)
	}
	return class
}

func (v *verifier) failed() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, c := range v.failures {
		n += c
	}
	return n
}

// check classifies one op's result. A hit-workload op whose body equals
// the already verified body for its key passes on that comparison alone;
// everything else is decoded and hashed against the reference. On
// success it stores the cell's simulated counts in the op.
func (v *verifier) check(o *op, res *result) string {
	v.attempted.Add(1)
	if o.expect != nil && res.status == http.StatusOK && bytes.Equal(res.body, o.expect) {
		return failNone
	}
	switch res.status {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return v.fail(failRejected, o, fmt.Sprintf("status %d", res.status))
	default:
		return v.fail(failStatus, o, fmt.Sprintf("status %d: %s", res.status, res.body))
	}
	if res.body != nil {
		if err := res.decode(o.digest); err != nil {
			return v.fail(failStatus, o, err.Error())
		}
	}
	if v.source != "" && res.source != v.source {
		return v.fail(failSource, o, fmt.Sprintf("source %q, want %q", res.source, v.source))
	}
	got := refEntry{Label: res.label, Kind: "summary"}
	payload := res.summary
	if res.errText != "" {
		got.Kind, payload = "error", []byte(res.errText)
	}
	sum := sha256.Sum256(payload)
	got.SHA256 = hex.EncodeToString(sum[:])
	var counts simCounts
	if got.Kind == "summary" {
		s, err := metrics.ParseSummary(res.summary)
		if err != nil {
			return v.fail(failMismatch, o, err.Error())
		}
		counts = countsOf(s)
		got.Steps = counts.steps
	}
	if v.record {
		v.mu.Lock()
		prev, seen := v.ref.Entries[o.digest]
		v.ref.Entries[o.digest] = got
		v.mu.Unlock()
		if seen && !prev.same(got) {
			return v.fail(failMismatch, o, "two executions of one key disagree")
		}
	} else if want := v.ref.Entries[o.digest]; !want.same(got) {
		return v.fail(failMismatch, o, fmt.Sprintf("got %+v, reference %+v", got, want))
	}
	o.counts = counts
	return failNone
}
