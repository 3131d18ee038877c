package main

import (
	"fmt"
	"net/http"
	"os"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
)

// The probes price the layers under core.Run that no caller can wrap:
// each runs a fixed number of operations on inputs taken from the
// campaign's own seeds and fields, five times, and reports the lowest
// time per operation (lowest, not median, for the reason every timing
// metric is a minimum: README "Host noise"). Code inside a *sim.Proc
// body touches no clock; the kernel's Run is timed from outside.

const probeRepeats = 5

// probes holds the probes' metrics by name, and how often each probe
// repeats: probeRepeats, or once in the smoke test.
type probes struct {
	repeats int
	m       map[string]float64
}

// perOp times f, which performs n operations, and returns the lowest
// nanoseconds per operation over the repeats.
func (p *probes) perOp(n int, f func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < p.repeats; i++ {
		t0 := time.Now()
		f()
		best = min(best, time.Since(t0))
	}
	return float64(best) / float64(n)
}

// lowestMedian is perOp for a latency distribution: f returns one
// latency per operation, and the result is the lowest median, in ns.
func (p *probes) lowestMedian(f func() []time.Duration) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < p.repeats; i++ {
		lat := f()
		slices.Sort(lat)
		best = min(best, lat[len(lat)/2])
	}
	return float64(best)
}

var (
	sinkV   vec.V3
	sinkInt int
)

// tierMedians are the one-client request medians of the two cache tiers,
// in us: printed by the tier-gap cross-check (trace.go ledger), not
// reported as metrics.
type tierMedians struct{ disk, memory float64 }

const (
	probePoints = 4096 // points along reference streamlines per field
	probeSeeds  = 48   // streamlines advected per step-time repeat
)

// streamlinePoints advects the problem's seeds in order and returns the
// first n points of their geometry: where the campaign evaluates the field.
func streamlinePoints[F field.Field](f F, prob core.Problem, n int) []vec.V3 {
	solver := integrate.NewDoPri5(prob.IntOpts)
	lim := integrate.AdvectLimits{Bounds: f.Bounds(), MaxSteps: prob.MaxSteps}
	var pts []vec.V3
	for _, seed := range prob.Seeds {
		solver.H = 0
		res := integrate.AdvectWith(solver, f, seed, 0, lim)
		pts = append(pts, res.Points...)
		if len(pts) >= n {
			return pts[:n]
		}
	}
	return pts
}

// probeField reports field.eval_ns and integrate.step_ns for one dataset
// on its concrete field type, as core's advectSteady instantiates it.
func probeField[F field.Field](p *probes, ds experiments.Dataset, f F, prob core.Problem) []vec.V3 {
	pts := streamlinePoints(f, prob, probePoints)
	const reps = 8
	p.m["field.eval_ns."+string(ds)] = p.perOp(reps*len(pts), func() {
		for r := 0; r < reps; r++ {
			for _, q := range pts {
				sinkV = f.Eval(q)
			}
		}
	})
	solver := integrate.NewDoPri5(prob.IntOpts)
	lim := integrate.AdvectLimits{Bounds: f.Bounds(), MaxSteps: prob.MaxSteps}
	seeds := prob.Seeds[:min(probeSeeds, len(prob.Seeds))]
	advect := func() (steps int) {
		for _, seed := range seeds {
			solver.H = 0
			res := integrate.AdvectWith(solver, f, seed, 0, lim)
			lim.Buf = res.Points[:0]
			steps += res.Steps
		}
		return steps
	}
	p.m["integrate.step_ns."+string(ds)] = p.perOp(advect(), func() { sinkInt = advect() })
	return pts
}

// countingField counts evaluations: integrate.evals_per_step is exact.
type countingField struct {
	f field.Field
	n *int
}

func (c countingField) Eval(q vec.V3) vec.V3 { *c.n++; return c.f.Eval(q) }

// probeCompute prices everything a cell's computation is made of, and
// returns the astro/sparse problem for the probes that follow.
func probeCompute(p *probes, sc experiments.Scale) (core.Problem, error) {
	var astroPts []vec.V3
	var astro core.Problem
	for _, ds := range []experiments.Dataset{experiments.Astro, experiments.Fusion, experiments.Thermal} {
		prob, err := experiments.BuildProblem(ds, experiments.Sparse, sc)
		if err != nil {
			return core.Problem{}, err
		}
		switch f := ds.Field().(type) {
		case field.Supernova:
			astroPts, astro = probeField(p, ds, f, prob), prob
		case field.Tokamak:
			probeField(p, ds, f, prob)
		case field.ThermalHydraulics:
			probeField(p, ds, f, prob)
		default:
			return core.Problem{}, fmt.Errorf("probe: dataset %s has field type %T, which core does not instantiate", ds, f)
		}
	}

	ft := field.DefaultPulsingSupernova()
	t0, t1 := ft.TimeRange()
	p.m["field.evalt_ns.astro"] = p.perOp(len(astroPts), func() {
		for i, q := range astroPts {
			sinkV = ft.EvalAt(q, t0+(t1-t0)*float64(i%64)/64)
		}
	})

	evals := 0
	cf := countingField{f: experiments.Astro.Field(), n: &evals}
	solver := integrate.NewDoPri5(astro.IntOpts)
	lim := integrate.AdvectLimits{Bounds: cf.f.Bounds(), MaxSteps: astro.MaxSteps}
	steps := 0
	for _, seed := range astro.Seeds[:probeSeeds] {
		solver.H = 0
		steps += integrate.AdvectWith(solver, cf, seed, 0, lim).Steps
	}
	p.m["integrate.evals_per_step"] = float64(evals) / float64(steps)

	d := astro.Provider.Decomp()
	p.m["grid.locate_ns"] = p.perOp(len(astroPts), func() {
		for _, q := range astroPts {
			id, _ := d.Locate(q)
			sinkInt = int(id)
		}
	})

	// One streamline's worth of geometry, appended the way advance does:
	// a block-crossing's points at a time.
	geom := astroPts[:astro.MaxSteps/16*16]
	const lines = 32
	p.m["trace.append_ns_per_point"] = p.perOp(lines*len(geom), func() {
		for l := 0; l < lines; l++ {
			sl := trace.New(l, geom[0], 0)
			for lo := 0; lo < len(geom); lo += 16 {
				sl.Append(geom[lo : lo+16])
			}
			sinkInt = len(sl.Points)
		}
	})
	sl := trace.New(0, geom[0], 0)
	sl.Append(geom)
	p.m["trace.marshal_ns_per_point"] = p.perOp(lines*len(sl.Points), func() {
		for l := 0; l < lines; l++ {
			sinkInt = len(sl.Marshal())
		}
	})

	pred := prefetch.New(d, prefetch.Config{Policy: prefetch.Neighbor, Depth: sc.PrefetchDepth})
	exits := make([]*trace.Streamline, 0, len(astroPts)-1)
	prevs := make([]grid.BlockID, 0, len(astroPts)-1)
	for i := 0; i+1 < len(astroPts); i++ {
		blk, ok := d.Locate(astroPts[i+1])
		if !ok {
			continue
		}
		exits = append(exits, &trace.Streamline{P: astroPts[i+1], Block: blk, Points: astroPts[i : i+2]})
		prevs = append(prevs, d.Neighbors(blk)[0])
	}
	p.m["prefetch.onexit_ns"] = p.perOp(len(exits), func() {
		for i, sl := range exits {
			sinkInt = len(pred.OnExit(prevs[i], sl))
		}
	})

	const spans = 200000
	p.m["obs.span_ns"] = p.perOp(spans, func() {
		rec := obs.NewDigest()
		rec.SetNumProcs(1)
		for i := 0; i < spans; i++ {
			t := float64(i) * 1e-6
			rec.Span(0, obs.SpanCompute, t, t+1e-6, int64(i), 10)
		}
	})

	// core.Run on astro/sparse at the top processor count, per algorithm,
	// and the share of it that is not integration: sim + comm + store +
	// scheduling. The core collapse must leave all eight unchanged.
	top := sc.ProcCounts[len(sc.ProcCounts)-1]
	var encoded [][]byte
	var summaries []metrics.Summary
	for _, alg := range core.Algorithms() {
		cfg := experiments.MachineConfig(alg, top, sc)
		var sum metrics.Summary
		var runErr error
		ns := p.perOp(1, func() {
			res, err := core.Run(astro, cfg)
			if err != nil {
				runErr = err
				return
			}
			sum = res.Summary
		})
		if runErr != nil {
			return core.Problem{}, fmt.Errorf("probe: core.Run astro/sparse/%s/%d: %w", alg, top, runErr)
		}
		p.m["core.run_ms."+string(alg)] = ns / 1e6
		p.m["core.nonintegrate_frac."+string(alg)] = 1 - float64(sum.Steps)*p.m["integrate.step_ns.astro"]/ns
		data, err := sum.CanonicalJSON()
		if err != nil {
			return core.Problem{}, err
		}
		summaries, encoded = append(summaries, sum), append(encoded, data)
	}
	const codecReps = 50
	p.m["metrics.encode_us"] = p.perOp(codecReps*len(summaries), func() {
		for r := 0; r < codecReps; r++ {
			for _, s := range summaries {
				data, _ := s.CanonicalJSON()
				sinkInt = len(data)
			}
		}
	}) / 1e3
	p.m["metrics.parse_us"] = p.perOp(codecReps*len(encoded), func() {
		for r := 0; r < codecReps; r++ {
			for _, data := range encoded {
				s, _ := metrics.ParseSummary(data)
				sinkInt = int(s.Steps)
			}
		}
	}) / 1e3
	return astro, nil
}

// probeSim prices the discrete-event kernel and what rides on it. The
// proc bodies are simulated code: they wait on virtual time only.
func probeSim(p *probes, sc experiments.Scale, prov grid.Provider) error {
	var simErr error
	run := func(k *sim.Kernel) {
		if err := k.Run(); err != nil {
			simErr = err
		}
	}
	const events = 200000
	p.m["sim.event_ns"] = p.perOp(events, func() {
		k := sim.New()
		k.Spawn("sleeper", func(proc *sim.Proc) {
			for i := 0; i < events; i++ {
				proc.Sleep(1e-6)
			}
		})
		run(k)
	})

	// Send -> Recv ping-pong: every message is one goroutine switch.
	const trips = 50000
	var token any = struct{}{}
	p.m["sim.handoff_ns"] = p.perOp(2*trips, func() {
		k := sim.New()
		var ping, pong *sim.Proc
		ping = k.Spawn("ping", func(proc *sim.Proc) {
			for i := 0; i < trips; i++ {
				proc.Send(pong, token, 1e-6)
				proc.Recv()
			}
		})
		pong = k.Spawn("pong", func(proc *sim.Proc) {
			for i := 0; i < trips; i++ {
				proc.Recv()
				proc.Send(ping, token, 1e-6)
			}
		})
		run(k)
	})

	top := sc.ProcCounts[len(sc.ProcCounts)-1]
	const kernels = 20
	p.m["sim.spawn_us_per_proc"] = p.perOp(kernels*top, func() {
		for n := 0; n < kernels; n++ {
			k := sim.New()
			for i := 0; i < top; i++ {
				k.Spawn("proc", func(proc *sim.Proc) { proc.Sleep(1e-6) })
			}
			run(k)
		}
	}) / 1e3

	var payload comm.Message = comm.Sized(4096)
	p.m["comm.roundtrip_ns"] = p.perOp(trips, func() {
		k := sim.New()
		fabric := comm.NewFabric(comm.DefaultNetwork())
		stats := metrics.NewCollector(2)
		var a, b *comm.Endpoint
		pa := k.Spawn("a", func(*sim.Proc) {
			for i := 0; i < trips; i++ {
				a.Send(1, payload)
				a.Recv()
			}
		})
		pb := k.Spawn("b", func(*sim.Proc) {
			for i := 0; i < trips; i++ {
				b.Recv()
				b.Send(0, payload)
			}
		})
		a, b = fabric.Attach(pa, stats.P(0)), fabric.Attach(pb, stats.P(1))
		run(k)
	})

	// The per-processor LRU block cache: a resident block, and a cyclic
	// scan over twice the capacity, where every Get evicts and reloads.
	const gets = 50000
	blocks := prov.Decomp().NumBlocks()
	cacheGets := func(span int) func() {
		return func() {
			k := sim.New()
			stats := metrics.NewCollector(1)
			k.Spawn("reader", func(proc *sim.Proc) {
				c := store.NewCache(proc, prov, store.DefaultDisk(), sc.CacheBlocks, stats.P(0))
				for i := 0; i < gets; i++ {
					c.Get(grid.BlockID(i % span))
				}
			})
			run(k)
		}
	}
	p.m["store.cache_hit_ns"] = p.perOp(gets, cacheGets(sc.CacheBlocks/2))
	p.m["store.cache_miss_ns"] = p.perOp(gets, cacheGets(min(2*sc.CacheBlocks, blocks)))
	return simErr
}

// probeCodecs prices the key codec, the Campaign memo and the problem
// builder on the workload's own keys.
func probeCodecs(p *probes, s *session, sc experiments.Scale) error {
	ops := s.w.ops
	p.m["experiments.parsekey_us"] = p.perOp(len(ops), func() {
		for i := range ops {
			k, _ := experiments.ParseKey(ops[i].body)
			sinkInt = k.Procs
		}
	}) / 1e3
	p.m["experiments.key_digest_us"] = p.perOp(len(ops), func() {
		for i := range ops {
			sinkInt = len(ops[i].key.Digest())
		}
	}) / 1e3

	seen := map[problemID]bool{}
	var problems []problemID
	for i := range ops {
		id := problemOf(ops[i].key)
		if !seen[id] {
			seen[id] = true
			problems = append(problems, id)
		}
	}
	var buildErr error
	p.m["experiments.problem_us"] = p.perOp(len(problems), func() {
		for _, id := range problems {
			prob, err := experiments.BuildInjectedProblem(id.ds, id.seeding, sc, id.unsteady, id.inject)
			if err != nil {
				buildErr = err
			}
			sinkInt = len(prob.Seeds)
		}
	}) / 1e3
	return buildErr
}

// probeServe prices serve.Store and the two cache tiers of a Server on a
// population of four cheap cells (thermal/sparse at the lowest processor
// count, one per algorithm), and the Server's own cost on top of a
// computation.
func probeServe(p *probes, s *session, sc experiments.Scale) (tierMedians, error) {
	var ops, absent []op // absent: cells the probe never computes
	for _, alg := range algorithms {
		o, err := newOp(cell{dataset: "thermal", seeding: "sparse", alg: alg, procs: sc.ProcCounts[0]})
		if err != nil {
			return tierMedians{}, err
		}
		a, err := newOp(cell{dataset: "astro", seeding: "dense", alg: alg, procs: sc.ProcCounts[0]})
		if err != nil {
			return tierMedians{}, err
		}
		ops, absent = append(ops, o), append(absent, a)
	}
	request := func(srv *serverSurface, o *op, source string) (time.Duration, error) {
		t0 := time.Now()
		res := srv.do(0, o)
		d := time.Since(t0)
		if res.status != http.StatusOK {
			return 0, fmt.Errorf("probe: %s: status %d: %s", o.body, res.status, res.body)
		}
		if err := res.decode(o.digest); err != nil {
			return 0, err
		}
		if res.source != source {
			return 0, fmt.Errorf("probe: %s answered from %q, want %q", o.body, res.source, source)
		}
		return d, nil
	}

	// serve.cold_overhead_ms: per cell, the lowest request latency on a
	// fresh Server with an empty cache directory, less the lowest latency
	// of Campaign.Run plus the encoding on a fresh Campaign; the median
	// over the cells. What is left is handler, scheduler and Store.Put.
	cold := make([]time.Duration, len(ops))
	direct := make([]time.Duration, len(ops))
	for i := range ops {
		cold[i], direct[i] = 1<<63-1, 1<<63-1
	}
	var dir string // the last repeat's directory stays, populated
	for r := 0; r < p.repeats; r++ {
		srv := newServerSurface(s.cfg.scratch, false, true)
		if err := srv.open(""); err != nil {
			return tierMedians{}, err
		}
		camp := experiments.NewCampaign(sc)
		for i := range ops {
			d, err := request(srv, &ops[i], "computed")
			if err != nil {
				return tierMedians{}, err
			}
			cold[i] = min(cold[i], d)
			t0 := time.Now()
			campaignResult(&ops[i], camp.Run(ops[i].key))
			direct[i] = min(direct[i], time.Since(t0))
		}
		if err := srv.shut(); err != nil {
			return tierMedians{}, err
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = srv.dir
	}
	over := make([]time.Duration, len(ops))
	for i := range ops {
		over[i] = cold[i] - direct[i]
	}
	slices.Sort(over)
	p.m["serve.cold_overhead_ms"] = ms(over[len(over)/2])

	// One client, one request at a time: the hit path with nobody else on
	// the scheduler.
	const requests = 1000
	hits := func(srv *serverSurface, source string) (float64, error) {
		var reqErr error
		ns := p.lowestMedian(func() []time.Duration {
			lat := make([]time.Duration, requests)
			for i := range lat {
				d, err := request(srv, &ops[i%len(ops)], source)
				if err != nil {
					reqErr = err
				}
				lat[i] = d
			}
			return lat
		})
		return ns / 1e3, reqErr
	}
	disk := newServerSurface(s.cfg.scratch, false, true)
	if err := disk.open(dir); err != nil {
		return tierMedians{}, err
	}
	diskP50, err := hits(disk, "disk")
	if err != nil {
		return tierMedians{}, err
	}
	if err := disk.shut(); err != nil {
		return tierMedians{}, err
	}
	mem := newServerSurface(s.cfg.scratch, false, false)
	if err := mem.open(""); err != nil {
		return tierMedians{}, err
	}
	for i := range ops {
		if _, err := request(mem, &ops[i], "computed"); err != nil {
			return tierMedians{}, err
		}
	}
	memP50, err := hits(mem, "memory")
	if err != nil {
		return tierMedians{}, err
	}
	if err := mem.shut(); err != nil {
		return tierMedians{}, err
	}

	// The same tiers through the calls the Server makes.
	st, err := serve.OpenStore(dir)
	if err != nil {
		return tierMedians{}, err
	}
	scope := serve.Scope{Scale: scaleName}
	var storeErr error
	entries := make([]serve.Entry, len(ops))
	p.m["serve.store_get_us"] = p.perOp(requests, func() {
		for i := 0; i < requests; i++ {
			e, ok, err := st.Get(scope, ops[i%len(ops)].key)
			if err != nil || !ok {
				storeErr = fmt.Errorf("probe: store get %s: hit %v, %v", ops[i%len(ops)].body, ok, err)
			}
			entries[i%len(ops)] = e
		}
	}) / 1e3
	p.m["serve.store_miss_us"] = p.perOp(requests, func() {
		for i := 0; i < requests; i++ {
			if _, ok, _ := st.Get(scope, absent[i%len(absent)].key); ok {
				storeErr = fmt.Errorf("probe: store holds %s", absent[i%len(absent)].body)
			}
		}
	}) / 1e3
	const puts = 200
	p.m["serve.store_put_us"] = p.perOp(puts, func() {
		for i := 0; i < puts; i++ {
			e := serve.Entry{Summary: entries[i%len(ops)].Summary, Error: entries[i%len(ops)].Error}
			if err := st.Put(scope, ops[i%len(ops)].key, e); err != nil {
				storeErr = err
			}
		}
	}) / 1e3
	if storeErr != nil {
		return tierMedians{}, storeErr
	}

	camp := experiments.NewCampaign(sc)
	for i := range ops {
		camp.Run(ops[i].key)
	}
	const lookups = 100000
	p.m["experiments.memo_hit_ns"] = p.perOp(lookups, func() {
		for i := 0; i < lookups; i++ {
			out, _ := camp.Cached(ops[i%len(ops)].key)
			sinkInt = out.Summary.NumProcs
		}
	})

	// Request median less the staged calls: what the handler, the
	// scheduler and two goroutine handoffs cost on a hit.
	staged := p.m["experiments.parsekey_us"] + p.m["experiments.key_digest_us"]
	p.m["serve.hit_overhead_us.disk"] = diskP50 - staged - p.m["serve.store_get_us"]
	p.m["serve.hit_overhead_us.memory"] = memP50 - staged - p.m["experiments.memo_hit_ns"]/1e3
	return tierMedians{disk: diskP50, memory: memP50}, nil
}

func runProbes(s *session) (map[string]float64, tierMedians, error) {
	sc := s.w.scale
	p := &probes{repeats: probeRepeats, m: map[string]float64{}}
	if s.cfg.sizes.quick() {
		p.repeats = 1
	}
	astro, err := probeCompute(p, sc)
	if err != nil {
		return nil, tierMedians{}, err
	}
	if err := probeSim(p, sc, astro.Provider); err != nil {
		return nil, tierMedians{}, err
	}
	if err := probeCodecs(p, s, sc); err != nil {
		return nil, tierMedians{}, err
	}
	tiers, err := probeServe(p, s, sc)
	return p.m, tiers, err
}
