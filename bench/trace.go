package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later issue). Spans of one op
// share its key digest; a span's self time is its duration less the part
// its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced rounds run.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores the spans as a JSON array, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i := range t.spans {
		line, err := json.Marshal(&t.spans[i])
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
		if i < len(t.spans)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints, per span name, the count, total, self and median self
// time: the table README "Reading the trace" walks through.
func (t *tracer) summary(log func(format string, args ...any)) {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	byName := map[string][]int64{}
	total := map[string]int64{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], self[i])
		total[s.Name] += s.End - s.Start
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	log("bench: %-28s %9s %12s %12s %14s\n", "span", "count", "total_ms", "self_ms", "median_self_us")
	for _, name := range names {
		v := byName[name]
		slices.Sort(v)
		var sum int64
		for _, d := range v {
			sum += d
		}
		log("bench: %-28s %9d %12.3f %12.3f %14.3f\n", name, len(v), float64(total[name])/1e6, float64(sum)/1e6, float64(v[len(v)/2])/1e3)
	}
}

// traceRounds is how many rounds the traced run times each way.
const traceRounds = 2

// runTraced is the run the per-layer metrics come from; it is never used
// for an end-to-end number. After the usual set-up it times rounds
// without and with a span around every op (the difference is the tracing
// overhead), replays every distinct op stage by stage through the same
// public calls the product path makes, checking that the staged result
// is the product's, and runs the fixed-count probes of the layers under
// core.Run that cannot be wrapped from outside.
func runTraced(cfg config) (*output, error) {
	s, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	n := traceRounds
	if cfg.rounds > 0 {
		n = cfg.rounds
	}
	var (
		plain, traced []roundStat
		lats          [][]time.Duration
	)
	tr := newTracer()
	for i := 0; i < 2*n; i++ {
		lat := make([]time.Duration, len(s.seq))
		lats = append(lats, lat)
		if i%2 == 0 {
			st, err := s.pass(s.seq, lat, nil)
			if err != nil {
				return nil, err
			}
			plain = append(plain, st)
			continue
		}
		st, err := s.pass(s.seq, lat, tr)
		if err != nil {
			return nil, err
		}
		traced = append(traced, st)
	}
	if err := s.replay(tr); err != nil {
		return nil, err
	}
	p, tiers, err := runProbes(s)
	if err != nil {
		return nil, err
	}

	out := newOutput(s)
	for name, v := range p {
		out.metric(name, v)
	}
	best := fastest(plain)
	out.metric("op_tail_ms", ms(s.w.opTail(lats)))
	out.metric("core.steps", float64(s.counts.steps))
	out.metric("comm.msgs", float64(s.counts.msgs))
	out.metric("comm.bytes", float64(s.counts.bytes))
	out.metric("store.blocks_loaded", float64(s.counts.blocksLoaded))
	out.metric("store.blocks_purged", float64(s.counts.blocksPurged))
	out.metric("prefetch.issued", float64(s.counts.prefetchIssued))
	out.metric("faults.seeds_adopted", float64(s.counts.seedsAdopted))
	out.metric("experiments.pool_efficiency", float64(best.busy)/(clients*float64(best.wall)))
	out.metric("serve.src_mismatch", float64(s.v.failures[failSource]))
	out.metric("serve.rejected", float64(s.v.failures[failRejected]))
	out.metric("rt.gc_cycles_per_round", float64(best.gcCycles))
	out.metric("rt.gc_pause_ms_per_round", float64(best.gcPause)/1e6)
	out.metric("rt.mallocs_per_kstep", float64(best.mallocs)/float64(s.counts.steps)*1000)
	out.metric("rt.cpu_util", float64(best.cpu)/(float64(best.wall)*float64(runtime.GOMAXPROCS(0))))
	out.metric("bench.trace_overhead_frac", float64(fastest(traced).wall)/float64(best.wall)-1)
	j := jitter(append(plain, traced...))
	out.metric("bench.host_jitter_frac", j)

	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, format, args...) }
	tr.summary(logf)
	ledger(s, out, lats, tiers, logf)
	path := cfg.spans
	if path == "" {
		path = filepath.Join(s.cfg.scratch, "spans.json")
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	kept := ""
	if cfg.spans == "" {
		kept = " (scratch, removed on exit; keep it with -spans FILE)"
	}
	logf("bench: %s seed %d traced: %d spans written to %s%s, bench.host_jitter_frac %.3f%s\n",
		cfg.workload, cfg.seed, len(tr.spans), path, kept, j, noisy(j))
	return out, nil
}

// ledger prints the two cross-checks that tie the per-layer numbers to
// the end-to-end ones they sit under.
func ledger(s *session, out *output, lats [][]time.Duration, tiers tierMedians, logf func(string, ...any)) {
	m := func(name string) float64 { return out.Metrics[name].Value }
	switch s.w.name {
	case "paper_sweep":
		// Steps per dataset times that dataset's step time, against the
		// round's CPU seconds: the ledger explains the number above it. A
		// cell is one goroutine computing, so its latency is its CPU time;
		// both sides of the ratio are minima, so both are the quiet host's.
		var ns, cpu float64
		for i, d := range lowestPerOp(lats) {
			o := &s.w.ops[s.seq[i]]
			ns += float64(o.counts.steps) * m("integrate.step_ns."+string(o.key.Dataset))
			cpu += float64(d)
		}
		logf("bench: ledger: steps x integrate.step_ns = %.3f s of %.3f CPU s in the round (%.0f %%)\n",
			ns/1e9, cpu/1e9, ns/cpu*100)
	case "serve_disk", "serve_memory":
		// The tier gap seen from outside against the same gap from the
		// staged calls. -aa prints the two-client gap, op_p50_ms on
		// serve_disk less op_p50_ms on serve_memory, beside these.
		logf("bench: ledger: tier gap: one-client request p50 disk %.3f us - memory %.3f us = %.3f us; staged serve.store_get_us - experiments.memo_hit_ns = %.3f us\n",
			tiers.disk, tiers.memory, tiers.disk-tiers.memory, m("serve.store_get_us")-m("experiments.memo_hit_ns")/1e3)
	}
}

// stage runs one staged call under a child span.
func stage[T any](tr *tracer, name, op string, parent int, f func() T) T {
	id := tr.begin(name, op, parent)
	v := f()
	tr.end(id)
	return v
}

// replay walks every distinct op of the workload through its product
// path stage by stage, through public calls only, one span per call, and
// checks the staged result against the product's: the compute path's
// against the same reference digests, the hit path's against the very
// bytes the Server returned.
func (s *session) replay(tr *tracer) error {
	if s.w.hit() {
		return s.replayHits(tr)
	}
	sc := s.w.scale
	var store *serve.Store
	if s.w.source != "" {
		dir, err := os.MkdirTemp(s.cfg.scratch, "replay-")
		if err != nil {
			return err
		}
		if store, err = serve.OpenStore(dir); err != nil {
			return err
		}
	}
	// The Campaign builds each problem once and shares it between the
	// cells of a sweep; so does the replay.
	type built struct {
		once sync.Once
		prob core.Problem
		err  error
	}
	var (
		mu       sync.Mutex
		problems = map[problemID]*built{}
		next     atomic.Int64
		wg       sync.WaitGroup
		firstErr atomic.Pointer[error]
	)
	scope := serve.Scope{Scale: scaleName}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.w.ops) {
					return
				}
				o := &s.w.ops[i]
				root := tr.begin("replay.compute", o.digest, 0)
				k := stage(tr, "experiments.parsekey", o.digest, root, func() experiments.Key {
					k, _ := experiments.ParseKey(o.body)
					return k
				})
				mu.Lock()
				b := problems[problemOf(k)]
				if b == nil {
					b = &built{}
					problems[problemOf(k)] = b
				}
				mu.Unlock()
				b.once.Do(func() {
					stage(tr, "experiments.problem", o.digest, root, func() error {
						b.prob, b.err = experiments.BuildInjectedProblem(k.Dataset, k.Seeding, sc, k.Unsteady, k.Injection)
						return b.err
					})
				})
				if b.err != nil {
					firstErr.CompareAndSwap(nil, &b.err)
					return
				}
				cfg := stage(tr, "experiments.config", o.digest, root, func() core.Config {
					return experiments.KeyMachineConfig(k, sc)
				})
				res := result{status: http.StatusOK, source: s.w.source, label: k.Label()}
				var entry serve.Entry
				run := tr.begin("core.Run", o.digest, root)
				r, err := core.Run(b.prob, cfg)
				tr.end(run)
				if err != nil {
					res.errText = err.Error()
					entry.Error = res.errText
				} else {
					res.summary = stage(tr, "metrics.encode", o.digest, root, func() []byte {
						data, _ := r.Summary.CanonicalJSON()
						return data
					})
					entry.Summary = res.summary
				}
				stage(tr, "experiments.digest", o.digest, root, k.Digest)
				if store != nil {
					err := stage(tr, "serve.store_put", o.digest, root, func() error { return store.Put(scope, k, entry) })
					if err != nil {
						firstErr.CompareAndSwap(nil, &err)
						return
					}
				}
				tr.end(root)
				s.v.check(o, &res)
			}
		}()
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return *e
	}
	return nil
}

// replayHits is replay for the two hit workloads: parse, digest, look
// the result up in the tier the workload is about, encode the response.
// serve_disk reads the session's own cache directory through serve.Store;
// serve_memory looks up a Campaign memo the replay fills first, since a
// Server's memo cannot be reached from outside, and re-encodes the
// summary as the Server does on a memory hit.
func (s *session) replayHits(tr *tracer) error {
	srv := s.surf.(*serverSurface)
	var (
		store *serve.Store
		camp  *experiments.Campaign
	)
	if srv.disk {
		var err error
		if store, err = serve.OpenStore(srv.dir); err != nil {
			return err
		}
	} else {
		camp = experiments.NewCampaign(s.w.scale)
		camp.Workers = clients
		keys := make([]experiments.Key, len(s.w.ops))
		for i := range s.w.ops {
			keys[i] = s.w.ops[i].key
		}
		camp.RunKeys(keys)
	}
	scope := serve.Scope{Scale: scaleName}
	for i := range s.w.ops {
		o := &s.w.ops[i]
		root := tr.begin("replay.hit", o.digest, 0)
		k := stage(tr, "experiments.parsekey", o.digest, root, func() experiments.Key {
			k, _ := experiments.ParseKey(o.body)
			return k
		})
		row := serve.Row{Label: k.Label(), Cached: true, Source: s.w.source}
		row.Digest = stage(tr, "experiments.digest", o.digest, root, k.Digest)
		if store != nil {
			e := stage(tr, "serve.store_get", o.digest, root, func() serve.Entry {
				e, _, _ := store.Get(scope, k)
				return e
			})
			row.Error, row.Summary = e.Error, e.Summary
		} else {
			out := stage(tr, "experiments.memo_hit", o.digest, root, func() experiments.Outcome {
				out, _ := camp.Cached(k)
				return out
			})
			if out.Err != nil {
				row.Error = out.Err.Error()
			} else {
				row.Summary = stage(tr, "metrics.encode", o.digest, root, func() []byte {
					data, _ := out.Summary.CanonicalJSON()
					return data
				})
			}
		}
		body := stage(tr, "serve.response_encode", o.digest, root, func() []byte {
			data, _ := json.Marshal(serve.Response{Schema: serve.Schema, Scale: scaleName, Rows: []serve.Row{row}})
			return append(data, '\n')
		})
		tr.end(root)
		res := result{status: http.StatusOK, body: body}
		if !bytes.Equal(body, o.expect) {
			// Not the Server's bytes: let the full check say why, and fail
			// the op even if it decodes to the right summary.
			o.expect = nil
			if s.v.check(o, &res) == failNone {
				s.v.fail(failMismatch, o, "staged response differs from the Server's bytes")
			}
			continue
		}
		s.v.check(o, &res)
	}
	return nil
}
