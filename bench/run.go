package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// minRounds is the fewest timed rounds a run reports from. A compute
// cell counts with its lowest latency over the rounds and needs seven
// tries to have met a quiet core; a hit workload needs only its span of
// time (README "Host noise").
func (w *workload) minRounds() int {
	if w.hit() {
		return 5
	}
	return 7
}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64 // the timed section runs whole rounds until this has passed
	rounds   int     // when positive, exactly this many timed rounds instead
	trace    bool
	update   bool   // record references instead of checking them
	spans    string // where the traced run keeps its span file; "" = scratch
	scratch  string // an existing directory for cache directories and the like
	sizes    sizes
	log      io.Writer
}

// roundStat is what one pass over a round's sequence measured, all of it
// between the round's two clock reads.
type roundStat struct {
	wall     time.Duration
	busy     time.Duration // summed op latency over both clients
	cpu      time.Duration // process CPU time
	alloc    uint64        // TotalAlloc delta, bytes
	mallocs  uint64
	gcCycles uint32
	gcPause  uint64 // ns
}

// session is a set-up workload: surface open, caches filled, warm.
type session struct {
	cfg    config
	w      *workload
	v      *verifier
	surf   surface
	seq    []int32
	counts simCounts // simulated statistics one round delivers
}

// scratchRoot is where every run keeps its temporary state (cache
// directories, the span file), in a directory of its own that is removed
// on exit. It is relative to the working directory so that a run reads
// and writes only inside its checkout; .gitignore names it.
const scratchRoot = ".bench_tmp"

func newScratch() (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchRoot, "run-")
}

// removeScratch deletes the run's directory, and the root once no other
// run is using it.
func removeScratch(dir string) {
	os.RemoveAll(dir)
	os.Remove(scratchRoot) // fails, rightly, while another run's directory is there
}

// setUp does everything that precedes the first timed op; its duration
// is setup_s. For a hit workload that includes computing the whole
// population and, on serve_disk, persisting it and reopening the cache
// from a new Server, as after a restart. Every workload ends set-up with
// one full untimed, fully verified round.
func setUp(cfg config) (*session, error) {
	w, err := buildWorkload(cfg.workload, cfg.sizes)
	if err != nil {
		return nil, err
	}
	v, err := newVerifier(w, cfg.update)
	if err != nil {
		return nil, err
	}
	s := &session{cfg: cfg, w: w, v: v, seq: w.sequence(cfg.seed)}
	if err := s.open(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, err
	}
	s.counts = w.roundCounts(s.seq)
	return s, nil
}

func (s *session) open() error {
	switch s.w.name {
	case "paper_sweep":
		s.surf = &campaignSurface{scale: s.w.scale}
		return nil
	case "serve_cold":
		s.surf = newServerSurface(s.cfg.scratch, true, true)
		return nil
	}
	// A hit workload: compute every member of the population through a
	// Server, then make each answer come from the tier in question.
	srv := newServerSurface(s.cfg.scratch, false, s.w.source == "disk")
	s.surf = srv
	if err := srv.open(""); err != nil {
		return err
	}
	once := make([]int32, len(s.w.ops))
	for i := range once {
		once[i] = int32(i)
	}
	s.v.source = "computed"
	if _, err := s.pass(once, nil, nil); err != nil {
		return err
	}
	s.v.source = s.w.source
	if srv.disk {
		// "After a restart": a new Server, the same directory, an empty memo.
		dir := srv.dir
		if err := srv.shut(); err != nil {
			return err
		}
		if err := srv.open(dir); err != nil {
			return err
		}
	}
	// The first hit of each key is checked in full against the reference;
	// the timed rounds then compare bodies (verifier.check).
	for i := range s.w.ops {
		o := &s.w.ops[i]
		res := srv.do(0, o)
		if s.v.check(o, &res) == failNone {
			o.expect = slices.Clone(res.body)
		}
	}
	return nil
}

// warmUp is the untimed round that ends set-up. On the Campaign surface
// it goes through RunKeys, the batch entry point slbench uses, so that
// path is executed and verified in every run even though the timed
// rounds need per-cell latency and call Run.
func (s *session) warmUp() error {
	cs, ok := s.surf.(*campaignSurface)
	if !ok {
		_, err := s.pass(s.seq, nil, nil)
		return err
	}
	if err := cs.begin(); err != nil {
		return err
	}
	keys := make([]experiments.Key, len(s.seq))
	for i, j := range s.seq {
		keys[i] = s.w.ops[j].key
	}
	cs.camp.RunKeys(keys)
	for i := range s.w.ops {
		o := &s.w.ops[i]
		res := cs.do(0, o) // memoized by RunKeys
		s.v.check(o, &res)
	}
	return nil
}

func (s *session) close() {
	if s.surf != nil {
		if err := s.surf.close(); err != nil {
			fmt.Fprintln(s.cfg.log, "bench: close:", err)
		}
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass runs one round: the clients take ops from a shared cursor over
// seq, each sending its next op only when the previous one has returned
// (a closed loop). Surface construction, the forced GC and the drain sit
// outside the clock. lat, when non-nil, receives each op's latency at
// its position in seq; tr, when non-nil, one span per op.
func (s *session) pass(seq []int32, lat []time.Duration, tr *tracer) (roundStat, error) {
	if err := s.surf.begin(); err != nil {
		return roundStat{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	var (
		next atomic.Int64
		busy atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine time.Duration
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					break
				}
				o := &s.w.ops[seq[i]]
				span := tr.begin("op", o.digest, 0)
				t0 := time.Now()
				res := s.surf.do(c, o)
				d := time.Since(t0)
				tr.end(span)
				mine += d
				if lat != nil {
					lat[i] = d
				}
				s.v.check(o, &res)
			}
			busy.Add(int64(mine))
		}()
	}
	wg.Wait()
	st := roundStat{wall: time.Since(start), busy: time.Duration(busy.Load())}
	st.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	st.alloc = m1.TotalAlloc - m0.TotalAlloc
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.gcCycles = m1.NumGC - m0.NumGC
	st.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
	return st, s.surf.end()
}

// timed is the measured section: whole rounds until cfg.seconds have
// passed, never fewer than the workload's minRounds. It returns each round's statistics
// and each round's op latencies by position in s.seq.
func (s *session) timed(tr *tracer) ([]roundStat, [][]time.Duration, error) {
	var (
		rounds []roundStat
		lats   [][]time.Duration
	)
	budget := time.Duration(s.cfg.seconds * float64(time.Second))
	begin := time.Now()
	for {
		if n := len(rounds); s.cfg.rounds > 0 {
			if n >= s.cfg.rounds {
				break
			}
		} else if n >= s.w.minRounds() && time.Since(begin) >= budget {
			break
		}
		lat := make([]time.Duration, len(s.seq))
		st, err := s.pass(s.seq, lat, tr)
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, st)
		lats = append(lats, lat)
	}
	return rounds, lats, nil
}

// timing is the two measured quantities every end-to-end timing metric
// is made of.
type timing struct {
	wall, p50 time.Duration
}

// Host interference only adds time, so every timing metric is built from
// minima. On a shared 2-vCPU host the interference comes in bursts of one
// to ten seconds that slow a core by up to 1.6x, and in spells of a
// minute or more that slow it by a tenth (README "Host noise"): no whole
// round escapes it, the fastest of seven whole rounds repeats to 15 %,
// and a median over rounds or a pooled percentile to worse.

// lowestPerOp returns, for each position of the round's sequence, the
// lowest latency any round saw there. The rounds are identical, so
// position i is the same op in every round.
func lowestPerOp(lats [][]time.Duration) []time.Duration {
	ideal := slices.Clone(lats[0])
	for _, lat := range lats[1:] {
		for i, d := range lat {
			ideal[i] = min(ideal[i], d)
		}
	}
	return ideal
}

// cleanestOps is the timing of a compute workload: each cell counts with
// its lowest latency over the rounds, the round's wall time is the closed
// loop replayed over those latencies, and the median is taken over the
// cells.
func cleanestOps(lats [][]time.Duration) timing {
	ideal := lowestPerOp(lats)
	t := timing{wall: makespan(ideal, clients)}
	slices.Sort(ideal)
	t.p50 = percentile(ideal, 50)
	return t
}

// cleanestSlices is the timing of a hit workload. A cache hit is too
// short to judge alone and the requests are shuffled, so a round is cut
// into slices of hitSlice consecutive requests, all alike; each slice has
// a median and a mean latency, and each metric is the lowest value any
// slice of any round reached. The round's wall time is what it would be
// had every slice run like the one with the lowest mean.
func cleanestSlices(lats [][]time.Duration) timing {
	t := timing{wall: math.MaxInt64, p50: math.MaxInt64}
	n := len(lats[0])
	size := min(hitSlice, n)
	buf := make([]time.Duration, size)
	for _, lat := range lats {
		for lo := 0; lo+size <= n; lo += size {
			copy(buf, lat[lo:lo+size])
			slices.Sort(buf)
			var sum time.Duration
			for _, d := range buf {
				sum += d
			}
			t.p50 = min(t.p50, percentile(buf, 50))
			t.wall = min(t.wall, sum)
		}
	}
	// t.wall is the lowest summed latency of one slice, shared by the clients.
	t.wall = time.Duration(float64(t.wall) / float64(size) * float64(n) / clients)
	return t
}

// opTail is op_tail_ms, a per-layer metric: the highest percentile with
// at least ten samples beyond it. On a compute workload that is the p90
// over the cells of each cell's lowest latency, the cost of the expensive
// cells. On a hit workload it is the p99 pooled over every request of the
// rounds given: what a request pays when it meets a GC cycle or a stall.
// Neither repeats well enough on a shared host to carry a bound.
func (w *workload) opTail(lats [][]time.Duration) time.Duration {
	var pooled []time.Duration
	if w.hit() {
		for _, lat := range lats {
			pooled = append(pooled, lat...)
		}
	} else {
		pooled = lowestPerOp(lats)
	}
	slices.Sort(pooled)
	return percentile(pooled, w.tailPct)
}

// makespan is the wall time of a closed loop of n clients taking ops in
// order from one queue when each op takes its given latency: the round
// as pass runs it, less the harness's own work between ops.
func makespan(lat []time.Duration, n int) time.Duration {
	free := make([]time.Duration, n)
	for _, d := range lat {
		c := 0
		for i := range free {
			if free[i] < free[c] {
				c = i
			}
		}
		free[c] += d
	}
	return slices.Max(free)
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func fastest(rounds []roundStat) roundStat {
	best := rounds[0]
	for _, r := range rounds[1:] {
		if r.wall < best.wall {
			best = r
		}
	}
	return best
}

// jitter is slowest over fastest round minus one: how much the host
// interfered with this run, and so how much to trust it.
func jitter(rounds []roundStat) float64 {
	lo, hi := rounds[0].wall, rounds[0].wall
	for _, r := range rounds[1:] {
		lo, hi = min(lo, r.wall), max(hi, r.wall)
	}
	return float64(hi)/float64(lo) - 1
}

const mb = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runUntraced is the run the end-to-end metrics come from.
func runUntraced(cfg config) (*output, error) {
	t0 := time.Now()
	s, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	setup := time.Since(t0)

	rounds, lats, err := s.timed(nil)
	if err != nil {
		return nil, err
	}
	t := cleanestOps(lats)
	if s.w.hit() {
		t = cleanestSlices(lats)
	}
	var alloc uint64
	for _, r := range rounds {
		alloc += r.alloc
	}
	out := newOutput(s)
	out.metric("setup_s", setup.Seconds())
	out.metric("wall_s", t.wall.Seconds())
	out.metric("steps_per_s", float64(s.counts.steps)/t.wall.Seconds())
	out.metric("op_p50_ms", ms(t.p50))
	out.metric("alloc_mb", float64(alloc)/float64(len(rounds))/mb)

	// What a long-lived process keeps: the samples go, the Campaign or
	// Server (memo, problems, scheduler) stays reachable through s.
	samples := len(s.seq) * len(lats)
	lats = nil
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.metric("live_heap_mb", float64(m.HeapAlloc)/mb)
	runtime.KeepAlive(s)

	j := jitter(rounds)
	fmt.Fprintf(cfg.log, "bench: %s seed %d: %d rounds, %d op samples, fastest whole round %.4fs, bench.host_jitter_frac %.3f%s\n",
		cfg.workload, cfg.seed, len(rounds), samples, fastest(rounds).wall.Seconds(), j, noisy(j))
	if cfg.update {
		if err := s.v.ref.write(); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "bench: wrote %s (%d entries)\n", referencePath(s.w.name), len(s.v.ref.Entries))
	}
	return out, nil
}

// noisyHost is the host_jitter_frac above which a run says so. It does
// not fail the run: the fastest round may still be clean.
const noisyHost = 0.25

func noisy(j float64) string {
	if j > noisyHost {
		return " (noisy host)"
	}
	return ""
}
