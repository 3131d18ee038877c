package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// raceEnabled reports a -race build (race_test.go), whose sync.Pool
// makes allocation counts vary.
var raceEnabled bool

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

// hybridOneBody is a hybrid cell with no processor for a slave.
const hybridOneBody = `{"dataset":"astro","seeding":"sparse","alg":"hybrid","procs":1}`

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
	filepath.WalkDir(filepath.Join(st.root, entryVersion, sc.Scale), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".entry") {
			n++
		}
		return nil
	})
	return n
}

// cacheLen counts the cached entries for the server's scale.
func (s *Server) cacheLen() int {
	return storeLen(s.store, Scope{Scale: s.cfg.ScaleName})
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
			if s.cacheLen() != 1 {
				t.Fatalf("cache has %d entries, want 1", s.cacheLen())
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

// TestMediaAnswerAlike: a memory hit and a disk hit of one cell carry
// the same summary bytes.
func TestMediaAnswerAlike(t *testing.T) {
	hits := map[string]Row{}
	for medium, set := range media(t) {
		s := newTestServer(t, set)
		post(s, http.MethodPost, "/v1/cell", "", cellBody)
		hits[medium] = decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", cellBody)).Rows[0]
		if hits[medium].Source != medium {
			t.Fatalf("second request answered by %q, want %s", hits[medium].Source, medium)
		}
	}
	d, m := hits["disk"], hits["memory"]
	if len(d.Summary) == 0 || !bytes.Equal(d.Summary, m.Summary) {
		t.Fatalf("the media answer differently:\n disk   %s\n memory %s", d.Summary, m.Summary)
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
// worker and checks every tenant's concurrent requests complete. Run
// with -race.
func TestTenantsProgressUnderSaturatedPool(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1; c.TenantLimit = 8 })

	tenants := []string{"alpha", "beta", "gamma"}
	algs := []string{"ondemand", "stealing"}
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*len(algs))
	for ti, tenant := range tenants {
		for _, alg := range algs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Distinct cells per tenant so every request needs real pool time.
				body := fmt.Sprintf(`{"dataset":"astro","seeding":"sparse","alg":%q,"procs":%d}`, alg, 2+ti)
				w := post(s, http.MethodPost, "/v1/cell", tenant, body)
				var resp Response
				switch err := json.Unmarshal(w.Body.Bytes(), &resp); {
				case w.Code != http.StatusOK:
					errs <- fmt.Errorf("tenant %s: status %d: %s", tenant, w.Code, w.Body.String())
				case err != nil:
					errs <- fmt.Errorf("tenant %s: %v", tenant, err)
				case len(resp.Rows) != 1:
					errs <- fmt.Errorf("tenant %s: %d rows", tenant, len(resp.Rows))
				case resp.Rows[0].Error != "":
					errs <- fmt.Errorf("tenant %s: cell %s failed: %s", tenant, resp.Rows[0].Label, resp.Rows[0].Error)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTenantQueuesAreDropped: the scheduler keeps a queue per tenant with
// work outstanding, not per X-Tenant value ever seen — a thousand
// one-request tenants and a request whose cell hit leave nothing behind.
// The store keeps nothing, so each request is a miss that reaches the
// scheduler.
func TestTenantQueuesAreDropped(t *testing.T) {
	s := newTestServer(t, nil)
	s.store = newMemStore(0)
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
	if err := s.sched.submit("hit", nil); err != nil {
		t.Fatalf("nil submission = %v, want nil", err)
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

// TestBatchAliasSpellingsCollapse: the canonical spelling of a cell and
// alias spellings of its zero axes ("t0" injection, "off" prefetch),
// posted one after the other, are one cache address: the second request
// hits the first one's entry.
func TestBatchAliasSpellingsCollapse(t *testing.T) {
	for medium, set := range media(t) {
		t.Run(medium, func(t *testing.T) {
			s := newTestServer(t, set)
			canonical := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", cellBody)).Rows[0]
			alias := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "",
				`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":2,"injection":"t0","prefetch":"off"}`)).Rows[0]
			if canonical.Digest != alias.Digest {
				t.Fatalf("alias spelling got its own cache address: %s vs %s", canonical.Digest, alias.Digest)
			}
			if !alias.Cached || !bytes.Equal(canonical.Summary, alias.Summary) {
				t.Fatalf("alias spelling answered cached=%v, or with different summary bytes", alias.Cached)
			}
			if s.cacheLen() != 1 {
				t.Fatalf("two spellings of one cell filled %d cache entries, want 1", s.cacheLen())
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
		// The body is the whole request: a query, ?observe=1
		// included, is refused rather than ignored.
		{"observe query", http.MethodPost, "/v1/cell?observe=1", cellBody, http.StatusBadRequest},
		{"empty query", http.MethodPost, "/v1/cell?", cellBody, http.StatusBadRequest},
		{"empty body", http.MethodPost, "/v1/cell", "", http.StatusBadRequest},
		{"not json", http.MethodPost, "/v1/cell", "procs=8", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/cell", `{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":2,"speed":"ludicrous"}`, http.StatusBadRequest},
		{"unknown dataset", http.MethodPost, "/v1/cell", `{"dataset":"galaxy","seeding":"sparse","alg":"ondemand","procs":2}`, http.StatusBadRequest},
		{"version skew", http.MethodPost, "/v1/cell", `{"v":"key/v9","dataset":"astro","seeding":"sparse","alg":"ondemand","procs":2}`, http.StatusBadRequest},
		// A processor count no host could allocate is refused before it
		// reaches the machine model; "health ok" below proves the daemon
		// still answers.
		{"hostile procs", http.MethodPost, "/v1/cell", `{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":200000000}`, http.StatusBadRequest},
		// The kill scenario takes processor 0; at one processor the cell
		// would run fault-free and be cached under a kill label.
		{"kill at one processor", http.MethodPost, "/v1/cell", killOneBody, http.StatusBadRequest},
		// A hybrid cell needs a master and a slave; at one processor it
		// used to fail in core and be cached as a result.
		{"hybrid at one processor", http.MethodPost, "/v1/cell", hybridOneBody, http.StatusBadRequest},
		{"trailing data", http.MethodPost, "/v1/cell", cellBody + `{"again":true}`, http.StatusBadRequest},
		// Closing delimiters are what json.Decoder.More answers false to.
		{"trailing brace", http.MethodPost, "/v1/cell", cellBody + `}`, http.StatusBadRequest},
		{"trailing bracket", http.MethodPost, "/v1/cell", cellBody + `]`, http.StatusBadRequest},
		{"trailing spaced bracket", http.MethodPost, "/v1/cell", cellBody + ` ]`, http.StatusBadRequest},
		{"oversized body", http.MethodPost, "/v1/cell", strings.Repeat(" ", maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		// A request asks for one cell: there is no batch route, so every
		// body the old /v1/cells took or refused is a 404, its body read
		// by no handler — an oversized one included.
		{"batch hostile procs", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `,{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":4097}]}`, http.StatusNotFound},
		{"batch trailing data", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `]}{}`, http.StatusNotFound},
		{"batch trailing brace", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `]}}`, http.StatusNotFound},
		{"batch trailing bracket", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `]}]`, http.StatusNotFound},
		{"batch trailing spaced bracket", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `]} ]`, http.StatusNotFound},
		{"batch no cells", http.MethodPost, "/v1/cells", `{"cells":[]}`, http.StatusNotFound},
		{"batch bad envelope", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + `],"mode":"fast"}`, http.StatusNotFound},
		{"batch bad cell", http.MethodPost, "/v1/cells", `{"cells":[{"dataset":"astro"}]}`, http.StatusNotFound},
		{"batch over limit", http.MethodPost, "/v1/cells", `{"cells":[` + cellBody + strings.Repeat(","+cellBody, 32) + `]}`, http.StatusNotFound},
		{"batch oversized body", http.MethodPost, "/v1/cells", strings.Repeat(" ", maxBodyBytes+1), http.StatusNotFound},
		// The envelope is no key, so /v1/cell refuses it.
		{"envelope as a cell", http.MethodPost, "/v1/cell", `{"cells":[` + cellBody + `],"observe":true}`, http.StatusBadRequest},
		{"health ok", http.MethodGet, "/healthz", "", http.StatusOK},
		{"health method", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed},
		{"unknown path", http.MethodGet, "/v1/summary", "", http.StatusNotFound},
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
	if n := s.cacheLen(); n != 0 {
		t.Fatalf("refused requests cached %d entries, want 0", n)
	}
}

// FuzzCellRequest posts each input as a /v1/cell body on a tiny-scale
// Server with no cache directory. Every answer is a 200 whose one row is
// the body's cell, or a 4xx carrying the JSON error envelope: never a
// 5xx, never a panic. A body ParseKey accepts is always answered.
func FuzzCellRequest(f *testing.F) {
	for _, seed := range []string{
		cellBody,
		`{"v":"key/v1","dataset":"fusion","seeding":"dense","alg":"stealing","procs":4,"prefetch":"off","injection":"t0","faults":"off"}`,
		killOneBody,
		hybridOneBody,
		`{"cells":[` + cellBody + `,{"dataset":"thermal","seeding":"sparse","alg":"hybrid","procs":4,"faults":"kill"}],"observe":true}`,
		cellBody + `{}`,
		`{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":2,"speed":"ludicrous"}`,
	} {
		f.Add(seed)
	}
	s := newTestServer(f, func(c *Config) { c.Workers = 2 })
	f.Fuzz(func(t *testing.T, body string) {
		w := post(s, http.MethodPost, "/v1/cell", "", body)
		k, parseErr := experiments.ParseKey([]byte(body))
		switch {
		case w.Code == http.StatusOK:
			if parseErr != nil {
				t.Fatalf("POST %q answered 200, but the key does not parse: %v", body, parseErr)
			}
			resp := decodeResponse(t, w)
			if resp.Scale != "tiny" || len(resp.Rows) != 1 {
				t.Fatalf("POST %q: scale %q with %d rows, want tiny with 1", body, resp.Scale, len(resp.Rows))
			}
			if row := resp.Rows[0]; row.Digest != k.Digest() || row.Label != k.Label() {
				t.Fatalf("POST %q: row is %s (%s), want %s (%s)", body, row.Label, row.Digest, k.Label(), k.Digest())
			}
		case w.Code >= 400 && w.Code < 500:
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("POST %q: %d without the JSON error envelope: %s", body, w.Code, w.Body.String())
			}
			if parseErr == nil {
				t.Fatalf("POST %q: a valid key answered %d: %s", body, w.Code, w.Body.String())
			}
		default:
			t.Fatalf("POST %q: status %d: %s", body, w.Code, w.Body.String())
		}
	})
}

// TestDrainRefusesNewWork: a drained Server answers 503 to every cell
// request, a cell its store holds included.
func TestDrainRefusesNewWork(t *testing.T) {
	for medium, set := range media(t) {
		t.Run(medium, func(t *testing.T) {
			s := newTestServer(t, set)
			decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", cellBody)) // fill the cache
			if err := s.Drain(context.Background()); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			for _, body := range []string{cellBody, missBody} {
				if w := post(s, http.MethodPost, "/v1/cell", "", body); w.Code != http.StatusServiceUnavailable {
					t.Fatalf("POST %s after drain: status %d, want 503", body, w.Code)
				}
			}
		})
	}
}

// missBody and otherMissBody are cells no test request computes before
// the one that means to.
const (
	missBody      = `{"dataset":"astro","seeding":"sparse","alg":"stealing","procs":2}`
	otherMissBody = `{"dataset":"fusion","seeding":"sparse","alg":"ondemand","procs":2}`
)

// countExec makes every computation the Server's workers start wait for
// gate, and counts them. Call it between requests: the tasks already
// served ran the old exec.
func countExec(s *Server, gate <-chan struct{}) *atomic.Int32 {
	var n atomic.Int32
	exec := s.sched.exec
	s.sched.exec = func(t *task) {
		n.Add(1)
		<-gate
		exec(t)
	}
	return &n
}

// TestHitIsAnsweredAtTheCap: a hit never queues, so it is answered from
// the store while a blocked computation holds its tenant's only
// admission slot; a miss from that tenant is the 429. Only the admitted
// miss reaches a worker.
func TestHitIsAnsweredAtTheCap(t *testing.T) {
	for medium, set := range media(t) {
		t.Run(medium, func(t *testing.T) {
			s := newTestServer(t, func(c *Config) { set(c); c.TenantLimit = 1 })
			decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "T", cellBody)) // fill the cache
			gate := make(chan struct{})
			release := sync.OnceFunc(func() { close(gate) })
			t.Cleanup(release) // before the drain, should the test stop early
			started := countExec(s, gate)
			blocked := make(chan *httptest.ResponseRecorder, 1)
			go func() { blocked <- post(s, http.MethodPost, "/v1/cell", "T", missBody) }()
			for deadline := time.Now().Add(5 * time.Second); started.Load() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the blocking computation never started")
				}
			}

			if row := decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "T", cellBody)).Rows[0]; !row.Cached || row.Source != medium {
				t.Errorf("a hit at the cap was answered cached=%v source=%q, want a %s hit", row.Cached, row.Source, medium)
			}
			if w := post(s, http.MethodPost, "/v1/cell", "T", otherMissBody); w.Code != http.StatusTooManyRequests {
				t.Errorf("a miss at the cap: status %d, want 429; body %s", w.Code, w.Body.String())
			}
			release()
			if row := decodeResponse(t, <-blocked).Rows[0]; row.Source != "computed" {
				t.Errorf("the blocked miss was answered by %q, want computed", row.Source)
			}
			if n := started.Load(); n != 1 {
				t.Errorf("%d cells reached a worker, want the 1 admitted miss", n)
			}
		})
	}
}

// TestTimeoutWarmsCacheAnyway pins the 504 contract: the request times
// out but the computation continues and lands in the cache for the
// retry. The computation is held until the request has been answered,
// so a worker that finishes first cannot race the deadline. The body is
// canonical, so its address is the request's pooled buffer itself; a
// second body is read into that buffer while the first computation may
// still run, and the computation must land under the first key.
func TestTimeoutWarmsCacheAnyway(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.CacheDir = t.TempDir()
		c.Timeout = time.Nanosecond
	})
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before the drain, should the test stop early
	countExec(s, gate)
	first := experiments.Key{Dataset: experiments.Astro, Seeding: experiments.Sparse, Alg: "ondemand", Procs: 2}
	w := post(s, http.MethodPost, "/v1/cell", "", string(first.CanonicalJSON()))
	release()
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body.String())
	}
	second := first
	second.Procs = 4
	if w := post(s, http.MethodPost, "/v1/cell", "", string(second.CanonicalJSON())); w.Code != http.StatusGatewayTimeout && w.Code != http.StatusOK {
		t.Fatalf("second body: status %d, want 504 or 200; body %s", w.Code, w.Body.String())
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, ok, err := s.store.Get(Scope{Scale: s.cfg.ScaleName}, first)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed-out computation never reached the cache under its key")
		}
	}
}

// encodingCases are responses whose strings exercise every escape
// encoding/json applies, and whose shapes cover a miss, an error row and
// a batch.
func encodingCases(t *testing.T) map[string]Response {
	t.Helper()
	sum := testSummary(t)
	hit := Row{Label: "astro/sparse/ondemand/8", Digest: strings.Repeat("ab", 32), Cached: true, Source: "disk", Summary: sum}
	failed := func(label, errText string) Row {
		return Row{Label: label, Digest: hit.Digest, Source: "computed", Error: errText}
	}
	one := func(label, errText string) Response {
		return Response{Schema: Schema, Scale: "small", Rows: []Row{failed(label, errText)}}
	}
	miss := hit
	miss.Cached, miss.Source = false, "computed"
	return map[string]Response{
		"hit":                   {Schema: Schema, Scale: "small", Rows: []Row{hit}},
		"cached false":          {Schema: Schema, Scale: "small", Rows: []Row{miss}},
		"three rows":            {Schema: Schema, Scale: "small", Rows: []Row{hit, failed("thermal/dense/static/2", "out of memory"), miss}},
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
			if got := encodeResponse(nil, resp); !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("encodeResponse differs from encoding/json:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestEncodeResponseAllocs: a response whose strings need no escape —
// every row a Server answers with, bar a failure's text — is encoded in
// one allocation, the buffer sized up front, and into a reused buffer
// with room for it, in none.
func TestEncodeResponseAllocs(t *testing.T) {
	cases := encodingCases(t)
	for _, name := range []string{"hit", "cached false", "three rows", "no rows", "empty label and error"} {
		resp := cases[name]
		if n := testing.AllocsPerRun(100, func() { encodeResponse(nil, resp) }); n != 1 {
			t.Errorf("%s: encodeResponse made %v allocations, want 1", name, n)
		}
		buf := encodeResponse(nil, resp)
		if n := testing.AllocsPerRun(100, func() { buf = encodeResponse(buf[:0], resp) }); n != 0 {
			t.Errorf("%s: encodeResponse into a reused buffer made %v allocations, want 0", name, n)
		}
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
			Summary: json.RawMessage(`{"NumProcs":8}`)}
		resp := Response{Schema: Schema, Scale: label, Rows: []Row{row, {Label: errText, Source: "computed"}}}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeResponse(nil, resp); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("encodeResponse differs from encoding/json:\n got %q\nwant %q", got, want)
		}
	})
}

// TestOutcomeOfInvertsEntryOf: the outcome a flight whose lookup hit
// hands the requests sharing it encodes back to the cached payload, byte
// for byte; a summary that is not canonical is no outcome.
func TestOutcomeOfInvertsEntryOf(t *testing.T) {
	k := testKey(t)
	for name, e := range map[string]Entry{
		"summary": {Summary: testSummary(t)},
		"error":   {Error: "out of memory"},
	} {
		out, ok := outcomeOf(k, e)
		back, _ := entryOf(out)
		if !ok || !bytes.Equal(back.Summary, e.Summary) || back.Error != e.Error {
			t.Errorf("%s: entryOf(outcomeOf(e)) = %+v (ok %v), want %+v", name, back, ok, e)
		}
	}
	if _, ok := outcomeOf(k, Entry{Summary: json.RawMessage(`{"NumProcs":8}`)}); ok {
		t.Error("a one-field summary decoded")
	}
}

// hitWriter is a reusable http.ResponseWriter, so a hit's allocations
// are the handler's, not a recorder's.
type hitWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *hitWriter) Header() http.Header         { return w.header }
func (w *hitWriter) WriteHeader(code int)        { w.code = code }
func (w *hitWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// TestCellHitAllocs pins the allocations of a cache hit through
// Server.ServeHTTP on both media: for the body the key's CanonicalJSON
// writes, which is scanned in place and is its own address, and for an
// alias spelling of the same cell, which takes the general decoder and
// is re-encoded.
func TestCellHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	canonical := string(experiments.Key{Dataset: experiments.Astro, Seeding: experiments.Sparse, Alg: "ondemand", Procs: 2}.CanonicalJSON())
	want := map[string]map[string]float64{
		"disk":   {"canonical": 13, "alias": 25},
		"memory": {"canonical": 5, "alias": 17},
	}
	for medium, set := range media(t) {
		s := newTestServer(t, set)
		decodeResponse(t, post(s, http.MethodPost, "/v1/cell", "", canonical)) // fill the cache
		for name, body := range map[string]string{"canonical": canonical, "alias": cellBody} {
			rd := strings.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/cell", rd)
			w := &hitWriter{header: http.Header{}}
			n := testing.AllocsPerRun(100, func() {
				rd.Reset(body)
				clear(w.header)
				w.body.Reset()
				s.ServeHTTP(w, req)
			})
			if w.code != http.StatusOK || !strings.Contains(w.body.String(), `"cached":true`) {
				t.Fatalf("%s %s: status %d, body %s: not a hit", medium, name, w.code, w.body.String())
			}
			if n != want[medium][name] {
				t.Errorf("%s %s hit: %v allocations, want %v", medium, name, n, want[medium][name])
			}
		}
	}
}
