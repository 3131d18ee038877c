package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/seeds"
	"repro/internal/trace"
)

// TestTraceDoesNotPerturb pins the tracing contract: attaching a
// Recorder must not change the simulation. Every Summary and per-proc
// metrics column is bit-identical with tracing on or off (the two
// TraceEvents/TraceBytes meta-counters excepted, by definition), and
// the streamline geometry digests match exactly.
func TestTraceDoesNotPerturb(t *testing.T) {
	p := injectedProblem(seeds.Stagger(40, 0, 0.3))
	for _, alg := range Algorithms() {
		cfg := testConfig(alg, 4)
		cfg.CollectTraces = true
		off := mustRun(t, p, cfg)

		tcfg := cfg
		tcfg.Trace = obs.New()
		on := mustRun(t, p, tcfg)

		if on.Summary.TraceEvents == 0 || on.Summary.TraceBytes == 0 {
			t.Errorf("%s: tracing-on run recorded no meta-counters", alg)
		}
		onSum := on.Summary
		onSum.TraceEvents, onSum.TraceBytes = 0, 0
		if !reflect.DeepEqual(onSum, off.Summary) {
			t.Errorf("%s: Summary differs with tracing on:\n on: %+v\noff: %+v", alg, onSum, off.Summary)
		}
		for i := range off.PerProc {
			ps := on.PerProc[i]
			ps.TraceEvents, ps.TraceBytes = 0, 0
			if !reflect.DeepEqual(ps, off.PerProc[i]) {
				t.Errorf("%s: proc %d stats differ with tracing on", alg, i)
			}
		}
		if got, want := trace.CanonicalDigest(on.Streamlines), trace.CanonicalDigest(off.Streamlines); got != want {
			t.Errorf("%s: geometry digest differs with tracing on: %s != %s", alg, got, want)
		}
	}
}

// TestTraceByteIdentical runs the same configuration twice with fresh
// recorders: the event-stream hashes, the exported Chrome traces and
// the percentile reports must agree byte for byte.
func TestTraceByteIdentical(t *testing.T) {
	p := injectedProblem(seeds.Stagger(40, 0, 0.3))
	for _, alg := range Algorithms() {
		var hashes []uint64
		var exports [][]byte
		var reports []obs.Report
		for run := 0; run < 2; run++ {
			cfg := testConfig(alg, 4)
			cfg.Trace = obs.New()
			mustRun(t, p, cfg)
			hashes = append(hashes, cfg.Trace.Hash())
			var buf bytes.Buffer
			if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
				t.Fatalf("%s: export: %v", alg, err)
			}
			exports = append(exports, buf.Bytes())
			reports = append(reports, cfg.Trace.Report())
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: event-stream hash differs across runs: %x != %x", alg, hashes[0], hashes[1])
		}
		if !bytes.Equal(exports[0], exports[1]) {
			t.Errorf("%s: exported trace differs across runs", alg)
		}
		if !reflect.DeepEqual(reports[0], reports[1]) {
			t.Errorf("%s: percentile report differs across runs", alg)
		}
	}
}

// TestTraceEventCoverage checks that each algorithm's run actually
// exercises the event kinds its protocol implies: everything computes,
// loads blocks, waits on messages (the kernel's idle spans) and
// completes; staggered injection releases and parks;
// the communicating algorithms send and receive; stealing passes the
// termination token.
func TestTraceEventCoverage(t *testing.T) {
	p := injectedProblem(seeds.Stagger(40, 0, 0.3))
	common := []obs.Kind{
		obs.SpanCompute, obs.SpanIO, obs.SpanIdle, obs.MarkBlockLoad,
		obs.MarkComplete, obs.MarkRelease,
	}
	extra := map[Algorithm][]obs.Kind{
		StaticAlloc:  nil,
		LoadOnDemand: {obs.MarkPark},
		HybridMS:     {obs.SpanComm, obs.MarkSend, obs.MarkRecv},
		WorkStealing: {obs.MarkPark, obs.SpanComm, obs.MarkSend, obs.MarkRecv, obs.MarkTokenPass},
	}
	for _, alg := range Algorithms() {
		cfg := testConfig(alg, 4)
		cfg.Net = comm.DefaultNetwork() // comm spans need nonzero overheads
		cfg.Trace = obs.New()
		mustRun(t, p, cfg)

		seen := map[obs.Kind]bool{}
		for _, e := range cfg.Trace.Events() {
			seen[e.Kind] = true
		}
		for _, k := range append(append([]obs.Kind{}, common...), extra[alg]...) {
			if !seen[k] {
				t.Errorf("%s: no %s event recorded", alg, k)
			}
		}
		rep := cfg.Trace.Report()
		if rep.Steps.Count != 40 {
			t.Errorf("%s: steps digest has %d completions, want 40", alg, rep.Steps.Count)
		}
		if rep.Events == 0 || rep.Bytes != rep.Events*obs.EventBytes {
			t.Errorf("%s: report accounting off: %d events, %d bytes", alg, rep.Events, rep.Bytes)
		}
	}
}

// TestTraceFaultMarks checks the recovery path's marks: a killed
// processor leaves a kill mark, its salvaged work an adopt mark on a
// survivor, and a dead hybrid master a failover mark on the slave that
// takes over the role.
func TestTraceFaultMarks(t *testing.T) {
	p := testProblem(40)

	cfg := faultConfig(LoadOnDemand, 4)
	base := mustRun(t, p, cfg)
	cfg.Faults = faults.KillAt(0.3*base.Summary.WallClock, 0)
	cfg.Trace = obs.New()
	mustRun(t, p, cfg)
	want := map[obs.Kind]bool{obs.MarkKill: false, obs.MarkAdopt: false}
	for _, e := range cfg.Trace.Events() {
		if _, ok := want[e.Kind]; ok {
			want[e.Kind] = true
			if e.Kind == obs.MarkKill && e.Proc != 0 {
				t.Errorf("kill marked on proc %d, want 0", e.Proc)
			}
		}
	}
	for k, ok := range want {
		if !ok {
			t.Errorf("ondemand fault run: no %s event recorded", k)
		}
	}

	hcfg := faultConfig(HybridMS, 4) // W=8 -> one master (proc 0)
	hbase := mustRun(t, p, hcfg)
	hcfg.Faults = faults.KillAt(0.3*hbase.Summary.WallClock, 0)
	hcfg.Trace = obs.New()
	mustRun(t, p, hcfg)
	foundFailover := false
	for _, e := range hcfg.Trace.Events() {
		if e.Kind == obs.MarkFailover {
			foundFailover = true
			if e.Proc == 0 {
				t.Error("failover marked on the dead master")
			}
		}
	}
	if !foundFailover {
		t.Error("hybrid master kill: no failover event recorded")
	}
}
