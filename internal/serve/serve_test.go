package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// tinyScale is a deliberately minuscule campaign scale so service tests
// compute real cells in milliseconds.
func tinyScale() experiments.Scale {
	sc := experiments.SmallScale()
	sc.Name = "tiny"
	sc.BlocksPerAxis = 2
	sc.CellsPerAxis = 8
	sc.AstroSeeds = 24
	sc.FusionSeeds = 16
	sc.ThermalSparseGrid = 2
	sc.ThermalDenseSeeds = 40
	sc.MaxSteps = 60
	sc.ShortSteps = 30
	sc.ProcCounts = []int{2, 4}
	sc.CacheBlocks = 4
	return sc
}

// newTestServer builds a tiny-scale server; mutate adjusts the config
// before assembly. The server is drained at test cleanup.
func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	sc := tinyScale()
	cfg := Config{ScaleName: "tiny", Scale: &sc, Workers: 4, TenantLimit: 32}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

const cellBody = `{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":2}`

// killOneBody is a kill cell with no processor to survive the kill.
const killOneBody = `{"dataset":"thermal","seeding":"sparse","alg":"ondemand","procs":1,"faults":"kill"}`

// media lists the two cache media with the Config change that selects
// each: tests of behaviour the medium must not change range over it.
func media(t *testing.T) map[string]func(*Config) {
	return map[string]func(*Config){
		"disk":   func(c *Config) { c.CacheDir = t.TempDir() },
		"memory": func(*Config) {},
	}
}

// storeLen counts the entries cached under scope sc.
func storeLen(st *Store, sc Scope) int {
	n := 0
	if st.mem != nil {
		st.mu.RLock()
		defer st.mu.RUnlock()
		for a := range st.mem {
			if a.scope == sc {
				n++
			}
		}
		return n
	}
	filepath.WalkDir(filepath.Join(st.root, entryVersion, sc.dir()), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".entry") {
			n++
		}
		return nil
	})
	return n
}

// cacheLen counts the cached entries for the server's scale.
func (s *Server) cacheLen(observed bool) int {
	return storeLen(s.store, Scope{Scale: s.cfg.ScaleName, Observed: observed})
}

// post performs one request against the server's handler.
func post(s *Server, method, target, tenant, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// decodeResponse parses a 200 body.
func decodeResponse(t *testing.T, w *httptest.ResponseRecorder) Response {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v\nbody: %s", err, w.Body.String())
	}
	if resp.Schema != Schema {
		t.Fatalf("schema %q, want %q", resp.Schema, Schema)
	}
	return resp
}

// TestServeCellComputesThenServesFromDisk: the first request computes,
// the second is a hit on the store's medium with the same bytes.
func TestServeCellComputesThenServesFromDisk(t *testing.T) {
	for medium, set := range media(t) {
		t.Run(medium, func(t *testing.T) {
			s := newTestServer(t, set)

			first := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", cellBody))
			if len(first.Rows) != 1 {
				t.Fatalf("got %d rows, want 1", len(first.Rows))
			}
			r0 := first.Rows[0]
			if r0.Cached || r0.Source != "computed" {
				t.Fatalf("first hit cached=%v source=%q, want fresh computation", r0.Cached, r0.Source)
			}
			if r0.Error != "" {
				t.Fatalf("cell failed: %s", r0.Error)
			}
			if _, err := metrics.ParseSummary(r0.Summary); err != nil {
				t.Fatalf("summary is not canonical: %v", err)
			}
			if s.cacheLen(false) != 1 {
				t.Fatalf("cache has %d entries, want 1", s.cacheLen(false))
			}

			second := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", cellBody))
			r1 := second.Rows[0]
			if !r1.Cached || r1.Source != medium {
				t.Fatalf("second hit cached=%v source=%q, want %s", r1.Cached, r1.Source, medium)
			}
			if !bytes.Equal(r0.Summary, r1.Summary) {
				t.Fatalf("cached summary differs from fresh:\n fresh %s\ncached %s", r0.Summary, r1.Summary)
			}
			if r0.Digest != r1.Digest {
				t.Fatalf("digest changed: %s vs %s", r0.Digest, r1.Digest)
			}
		})
	}
}

// TestMediaAnswerAlike: a memory hit and a disk hit of one observed cell
// carry the same summary and percentile bytes.
func TestMediaAnswerAlike(t *testing.T) {
	hits := map[string]Row{}
	for medium, set := range media(t) {
		s := newTestServer(t, set)
		post(s, http.MethodPost, "/v1/cell?observe=1", "", cellBody)
		hits[medium] = decodeResponse(t, post(s, http.MethodPost, "/v1/cell?observe=1", "", cellBody)).Rows[0]
		if hits[medium].Source != medium {
			t.Fatalf("second request answered by %q, want %s", hits[medium].Source, medium)
		}
	}
	d, m := hits["disk"], hits["memory"]
	if len(d.Percentiles) == 0 || !bytes.Equal(d.Summary, m.Summary) || !bytes.Equal(d.Percentiles, m.Percentiles) {
		t.Fatalf("the media answer differently:\n disk   %s %s\n memory %s %s", d.Summary, d.Percentiles, m.Summary, m.Percentiles)
	}
}

// TestConcurrentIdenticalRequestsComputeOnce is the exactly-once pin: N
// racing identical requests run the simulation once — counted by the
// campaign's one log line per executed cell — and a request after them
// is a hit, because the write-back precedes the flight's release. Run
// with -race.
func TestConcurrentIdenticalRequestsComputeOnce(t *testing.T) {
	for medium, set := range media(t) {
		t.Run(medium, func(t *testing.T) {
			computes := 0
			s := newTestServer(t, func(c *Config) {
				set(c)
				c.Log = func(line string) {
					if !strings.HasPrefix(line, "serve:") {
						computes++ // serialized by the Server
					}
				}
			})

			const n = 8
			var wg sync.WaitGroup
			rows := make([]Row, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					w := post(s, http.MethodPost, "/v1/cell", "", cellBody)
					var resp Response
					if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Rows) != 1 {
						t.Errorf("request %d: status %d, body %s", i, w.Code, w.Body.String())
						return
					}
					rows[i] = resp.Rows[0]
				}(i)
			}
			wg.Wait()
			late := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", cellBody)).Rows[0]
			if late.Source != medium {
				t.Errorf("a request after the race was answered by %q, want %s", late.Source, medium)
			}

			if computes != 1 {
				t.Fatalf("%d racing requests ran the simulation %d times, want 1", n, computes)
			}
			for i := range rows {
				if !bytes.Equal(rows[i].Summary, late.Summary) || len(late.Summary) == 0 {
					t.Fatalf("request %d got different summary bytes", i)
				}
			}
		})
	}
}

// TestTenantsProgressUnderSaturatedPool starves the pool down to one
// worker and checks every tenant's batch completes. Run with -race.
func TestTenantsProgressUnderSaturatedPool(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1; c.TenantLimit = 8 })

	tenants := []string{"alpha", "beta", "gamma"}
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants))
	for ti, tenant := range tenants {
		wg.Add(1)
		go func(ti int, tenant string) {
			defer wg.Done()
			// Distinct cells per tenant so every batch needs real pool time.
			body := fmt.Sprintf(`{"cells":[`+
				`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":%d},`+
				`{"dataset":"astro","seeding":"sparse","alg":"stealing","procs":%d}]}`,
				2+ti, 2+ti)
			w := post(s, http.MethodPost, "/v1/cells", tenant, body)
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("tenant %s: status %d: %s", tenant, w.Code, w.Body.String())
				return
			}
			var resp Response
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				errs <- fmt.Errorf("tenant %s: %v", tenant, err)
				return
			}
			if len(resp.Rows) != 2 {
				errs <- fmt.Errorf("tenant %s: %d rows", tenant, len(resp.Rows))
				return
			}
			for _, r := range resp.Rows {
				if r.Error != "" {
					errs <- fmt.Errorf("tenant %s: cell %s failed: %s", tenant, r.Label, r.Error)
					return
				}
			}
			errs <- nil
		}(ti, tenant)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestTenantQueuesAreDropped: the scheduler keeps a queue per tenant with
// work outstanding, not per X-Tenant value ever seen — a thousand
// one-request tenants and a never-seen tenant turned away at the door
// leave nothing behind.
func TestTenantQueuesAreDropped(t *testing.T) {
	s := newTestServer(t, nil)
	post(s, http.MethodPost, "/v1/cell", "", cellBody) // fill the cache
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				if w := post(s, http.MethodPost, "/v1/cell", fmt.Sprintf("tenant-%d-%d", c, i), cellBody); w.Code != http.StatusOK {
					t.Errorf("tenant-%d-%d: status %d: %s", c, i, w.Code, w.Body.String())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var sat *saturatedError
	if _, err := s.sched.submit("never-seen", make([]experiments.Key, s.cfg.TenantLimit+1), false); !errors.As(err, &sat) {
		t.Fatalf("submit past the cap = %v, want a saturatedError", err)
	}
	s.sched.mu.Lock()
	defer s.sched.mu.Unlock()
	if n := len(s.sched.tenants); n != 0 {
		t.Fatalf("%d tenant queues outlive their work, want 0", n)
	}
}

// TestCacheSurvivesRestart is the persistence pin: a second server
// process (simulated by a second Server over the same directory) serves
// the identical summary bytes from disk.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScale()
	cfg := Config{ScaleName: "tiny", Scale: &sc, Workers: 2, TenantLimit: 8, CacheDir: dir}

	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New s1: %v", err)
	}
	fresh := decodeResponse(t, post(s1, http.MethodPost, "/v1/cell", "", cellBody))
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain s1: %v", err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New s2: %v", err)
	}
	defer s2.Drain(context.Background())
	reloaded := decodeResponse(t, post(s2, http.MethodPost, "/v1/cell", "", cellBody))

	fr, rr := fresh.Rows[0], reloaded.Rows[0]
	if !rr.Cached || rr.Source != "disk" {
		t.Fatalf("restarted server answered cached=%v source=%q, want disk", rr.Cached, rr.Source)
	}
	if !bytes.Equal(fr.Summary, rr.Summary) {
		t.Fatalf("reloaded summary is not byte-identical:\n fresh    %s\n reloaded %s", fr.Summary, rr.Summary)
	}
	if fr.Digest != rr.Digest || fr.Label != rr.Label {
		t.Fatalf("row identity drifted across restart: %+v vs %+v", fr, rr)
	}
}

func TestObservationIsASeparateCachePopulation(t *testing.T) {
	for medium, set := range media(t) {
		t.Run(medium, func(t *testing.T) {
			s := newTestServer(t, set)

			plain := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", cellBody)).Rows[0]
			if len(plain.Percentiles) != 0 {
				t.Fatalf("unobserved row carries percentiles: %s", plain.Percentiles)
			}
			obs := decodeResponse(t, post(s, http.MethodPost, "/v1/cell?observe=1", "", cellBody)).Rows[0]
			if len(obs.Percentiles) == 0 {
				t.Fatal("observed row has no percentiles")
			}
			if obs.Cached {
				t.Fatal("the observed request was answered from the unobserved population")
			}
			if obs.Digest != plain.Digest {
				t.Fatalf("observation changed the cell identity: %s vs %s", obs.Digest, plain.Digest)
			}
			if s.cacheLen(false) != 1 || s.cacheLen(true) != 1 {
				t.Fatalf("cache populations: unobserved=%d observed=%d, want 1 and 1", s.cacheLen(false), s.cacheLen(true))
			}
		})
	}
}

func TestBatchAliasSpellingsCollapse(t *testing.T) {
	for medium, set := range media(t) {
		t.Run(medium, func(t *testing.T) {
			s := newTestServer(t, set)
			// The same cell twice: canonical spelling and alias spellings of the
			// zero axes ("t0" injection, "off" prefetch).
			body := `{"cells":[` + cellBody + `,` +
				`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":2,"injection":"t0","prefetch":"off"}]}`
			resp := decodeResponse(t, post(s, http.MethodPost, "/v1/cells", "", body))
			if len(resp.Rows) != 2 {
				t.Fatalf("%d rows, want 2", len(resp.Rows))
			}
			if resp.Rows[0].Digest != resp.Rows[1].Digest {
				t.Fatalf("alias spelling got its own cache address: %s vs %s", resp.Rows[0].Digest, resp.Rows[1].Digest)
			}
			if !bytes.Equal(resp.Rows[0].Summary, resp.Rows[1].Summary) {
				t.Fatal("alias spelling got different summary bytes")
			}
			if s.cacheLen(false) != 1 {
				t.Fatalf("two spellings of one cell filled %d cache entries, want 1", s.cacheLen(false))
			}
		})
	}
}

func TestRequestValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name   string
		method string
		target string
		body   string
		want   int
	}{
		{"method", http.MethodGet, "/v1/cell", cellBody, http.StatusMethodNotAllowed},
		{"empty body", http.MethodPost, "/v1/cell", "", http.StatusBadRequest},
		{"not json", http.MethodPost, "/v1/cell", "procs=8", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/cell", `{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":2,"speed":"ludicrous"}`, http.StatusBadRequest},
		{"unknown dataset", http.MethodPost, "/v1/cell", `{"dataset":"galaxy","seeding":"sparse","alg":"ondemand","procs":2}`, http.StatusBadRequest},
		{"version skew", http.MethodPost, "/v1/cell", `{"v":"key/v9","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":2}`, http.StatusBadRequest},
		// A processor count no host could allocate is refused before it
		// reaches the machine model; "health ok" below proves the daemon
		// still answers.
		{"hostile procs", http.MethodPost, "/v1/cell", `{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":200000000}`, http.StatusBadRequest},
		{"batch hostile procs", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `,{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":4097}]}`, http.StatusBadRequest},
		// The kill scenario takes processor 0; at one processor the cell
		// would run fault-free and be cached under a kill label.
		{"kill at one processor", http.MethodPost, "/v1/cell", killOneBody, http.StatusBadRequest},
		{"trailing data", http.MethodPost, "/v1/cell", cellBody + `{"again":true}`, http.StatusBadRequest},
		// Closing delimiters are what json.Decoder.More answers false to.
		{"trailing brace", http.MethodPost, "/v1/cell", cellBody + `}`, http.StatusBadRequest},
		{"trailing bracket", http.MethodPost, "/v1/cell", cellBody + `]`, http.StatusBadRequest},
		{"trailing spaced bracket", http.MethodPost, "/v1/cell", cellBody + ` ]`, http.StatusBadRequest},
		{"batch trailing data", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `]}{}`, http.StatusBadRequest},
		{"batch trailing brace", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `]}}`, http.StatusBadRequest},
		{"batch trailing bracket", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `]}]`, http.StatusBadRequest},
		{"batch trailing spaced bracket", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `]} ]`, http.StatusBadRequest},
		{"batch no cells", http.MethodPost, "/v1/cells", `{"cells":[]}`, http.StatusBadRequest},
		{"batch bad envelope", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `],"mode":"fast"}`, http.StatusBadRequest},
		{"batch bad cell", http.MethodPost, "/v1/cells", `{"cells":[{"dataset":"astro"}]}`, http.StatusBadRequest},
		// One cell more than TenantLimit: a 429 here could never clear.
		{"batch over limit", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + strings.Repeat(","+cellBody, 32) + `]}`, http.StatusBadRequest},
		{"oversized body", http.MethodPost, "/v1/cell", strings.Repeat(" ", maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"batch oversized body", http.MethodPost, "/v1/cells", strings.Repeat(" ", maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"health ok", http.MethodGet, "/healthz", "", http.StatusOK},
		{"health method", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(s, tc.method, tc.target, "", tc.body)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d; body %s", w.Code, tc.want, w.Body.String())
			}
			if w.Code != http.StatusOK {
				var eb errorBody
				if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
					t.Fatalf("error body is not the JSON envelope: %s", w.Body.String())
				}
			}
		})
	}
}

// FuzzCellRequest posts each input to both cell endpoints — as a
// /v1/cell body, as a /v1/cells body, and as the one cell of a batch
// envelope — on a tiny-scale Server with no cache directory. Every answer
// is a 200 whose rows are the request's cells, in order, or a 4xx
// carrying the JSON error envelope: never a 5xx, never a panic. A body
// ParseKey accepts is always answered on /v1/cell.
func FuzzCellRequest(f *testing.F) {
	for _, seed := range []string{
		cellBody,
		`{"v":"key/v1","dataset":"fusion","seeding":"dense","alg":"stealing","procs":4,"prefetch":"off","injection":"t0","faults":"off"}`,
		killOneBody,
		`{"cells":[` + cellBody + `,{"dataset":"thermal","seeding":"sparse","alg":"hybrid","procs":4,"faults":"kill"}],"observe":true}`,
		cellBody + `{}`,
		`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":2,"speed":"ludicrous"}`,
	} {
		f.Add(seed)
	}
	s := newTestServer(f, func(c *Config) { c.Workers = 2 })
	f.Fuzz(func(t *testing.T, body string) {
		for _, req := range []struct{ target, body string }{
			{"/v1/cell", body},
			{"/v1/cells", body},
			{"/v1/cells", `{"cells":[` + body + `]}`},
		} {
			w := post(s, http.MethodPost, req.target, "", req.body)
			switch {
			case w.Code == http.StatusOK:
				checkRowsMatch(t, req.target, req.body, w)
			case w.Code >= 400 && w.Code < 500:
				var eb errorBody
				if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
					t.Fatalf("POST %s %q: %d without the JSON error envelope: %s", req.target, req.body, w.Code, w.Body.String())
				}
				if _, err := experiments.ParseKey([]byte(req.body)); err == nil && req.target == "/v1/cell" {
					t.Fatalf("POST %s %q: a valid key answered %d: %s", req.target, req.body, w.Code, w.Body.String())
				}
			default:
				t.Fatalf("POST %s %q: status %d: %s", req.target, req.body, w.Code, w.Body.String())
			}
		}
	})
}

// checkRowsMatch holds a 200 answer to the request it answers: the
// request decodes to keys, and the rows are those keys' cells in order.
func checkRowsMatch(t *testing.T, target, body string, w *httptest.ResponseRecorder) {
	t.Helper()
	cells := []json.RawMessage{json.RawMessage(body)}
	if target == "/v1/cells" {
		var req cellsRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("POST %s %q answered 200, but the envelope does not decode: %v", target, body, err)
		}
		cells = req.Cells
	}
	resp := decodeResponse(t, w)
	if resp.Scale != "tiny" || len(resp.Rows) != len(cells) {
		t.Fatalf("POST %s %q: scale %q with %d rows, want tiny with %d", target, body, resp.Scale, len(resp.Rows), len(cells))
	}
	for i, raw := range cells {
		k, err := experiments.ParseKey(raw)
		if err != nil {
			t.Fatalf("POST %s %q answered 200, but cell %d does not parse: %v", target, body, i, err)
		}
		if row := resp.Rows[i]; row.Digest != k.Digest() || row.Label != k.Label() {
			t.Fatalf("POST %s %q: row %d is %s (%s), want %s (%s)", target, body, i, row.Label, row.Digest, k.Label(), k.Digest())
		}
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s := newTestServer(t, nil)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	w := post(s, http.MethodPost, "/v1/cell", "", cellBody)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d after drain, want 503", w.Code)
	}
}

// TestTimeoutWarmsCacheAnyway pins the 504 contract: the request times
// out but the computation continues and lands in the cache for the
// retry.
func TestTimeoutWarmsCacheAnyway(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.CacheDir = t.TempDir()
		c.Timeout = time.Nanosecond
	})
	w := post(s, http.MethodPost, "/v1/cell", "", cellBody)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body.String())
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.cacheLen(false) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed-out computation never reached the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// encodingCases are responses whose strings exercise every escape
// encoding/json applies, and whose shapes cover a miss, percentiles, an
// error row and a batch.
func encodingCases(t *testing.T) map[string]Response {
	t.Helper()
	sum := testSummary(t)
	pct, err := json.Marshal(obs.Report{Events: 7, Bytes: 280, Hash: 1<<63 + 5})
	if err != nil {
		t.Fatal(err)
	}
	hit := Row{Label: "astro/sparse/ondemand/8", Digest: strings.Repeat("ab", 32), Cached: true, Source: "disk", Summary: sum}
	failed := func(label, errText string) Row {
		return Row{Label: label, Digest: hit.Digest, Source: "computed", Error: errText}
	}
	one := func(label, errText string) Response {
		return Response{Schema: Schema, Scale: "small", Rows: []Row{failed(label, errText)}}
	}
	observed := hit
	observed.Percentiles = pct
	miss := hit
	miss.Cached, miss.Source = false, "computed"
	return map[string]Response{
		"hit":                   {Schema: Schema, Scale: "small", Rows: []Row{hit}},
		"cached false":          {Schema: Schema, Scale: "small", Rows: []Row{miss}},
		"percentiles":           {Schema: Schema, Scale: "small", Rows: []Row{observed}},
		"three rows":            {Schema: Schema, Scale: "small", Rows: []Row{hit, failed("thermal/dense/static/2", "out of memory"), observed}},
		"no rows":               {Schema: Schema, Scale: "small", Rows: []Row{}},
		"nil rows":              {Schema: Schema, Scale: "small"},
		"html":                  one(`<script>a && b</script>`, `x<y>z&w`),
		"quote and backslash":   one(`say "hi"`, `C:\dir\"file"`),
		"control bytes":         one("\x00\x01\x07\x1f\x7f", "\b\f\n\r\t\v"),
		"line separators":       one("a\u2028b", "c\u2029d"),
		"non-ASCII":             one("Zürich — 東京", "🚀 \ufffd é"),
		"invalid UTF-8":         one("a\xffb\xc3(", "\xed\xa0\x80 \xf4\x90\x80\x80 \xe2\x80"),
		"empty label and error": one("", ""),
	}
}

// TestResponseEncoding pins encodeResponse to encoding/json: each case's
// body is json.Marshal(resp) and a newline, byte for byte.
func TestResponseEncoding(t *testing.T) {
	for name, resp := range encodingCases(t) {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeResponse(resp); !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("encodeResponse differs from encoding/json:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// FuzzResponseEncoding holds encodeResponse to json.Marshal+"\n" for
// any label and error text, in a two-row batch with both payloads.
func FuzzResponseEncoding(f *testing.F) {
	for _, s := range []string{"astro/sparse/ondemand/8", `<>&"\`, "\x00\x1f\x7f\n\t", "\u2028\u2029", "東京 🚀", "\xff\xc3(\xed\xa0\x80"} {
		f.Add(s, s)
	}
	f.Fuzz(func(t *testing.T, label, errText string) {
		row := Row{Label: label, Digest: label, Cached: true, Source: "memory", Error: errText,
			Summary: json.RawMessage(`{"NumProcs":8}`), Percentiles: json.RawMessage(`{"events":1}`)}
		resp := Response{Schema: Schema, Scale: label, Rows: []Row{row, {Label: errText, Source: "computed"}}}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeResponse(resp); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("encodeResponse differs from encoding/json:\n got %q\nwant %q", got, want)
		}
	})
}

// TestOutcomeOfInvertsEntryOf: the outcome a flight whose lookup hit
// hands the requests sharing it encodes back to the cached payload, byte
// for byte; percentiles that are not a report are no outcome.
func TestOutcomeOfInvertsEntryOf(t *testing.T) {
	k := testKey(t)
	pct, err := json.Marshal(obs.Report{Events: 3, Bytes: 120, Hash: 7})
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]Entry{
		"summary":        {Summary: testSummary(t)},
		"error":          {Error: "out of memory"},
		"observed":       {Summary: testSummary(t), Percentiles: pct},
		"observed error": {Error: "out of memory", Percentiles: pct},
	} {
		out, ok := outcomeOf(k, e)
		back, _ := entryOf(out)
		if !ok || !bytes.Equal(back.Summary, e.Summary) || back.Error != e.Error || !bytes.Equal(back.Percentiles, e.Percentiles) {
			t.Errorf("%s: entryOf(outcomeOf(e)) = %+v (ok %v), want %+v", name, back, ok, e)
		}
	}
	if _, ok := outcomeOf(k, Entry{Summary: testSummary(t), Percentiles: json.RawMessage(`[1]`)}); ok {
		t.Error("percentiles that are not a report decoded")
	}
}
