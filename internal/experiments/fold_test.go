package experiments

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/store"
)

// foldEvents folds a run's event stream into per-processor counters:
// the ProcStats fields an event carries (foldedFields), each summed in
// emission order, which is the order the counter itself is written in.
func foldEvents(events []obs.Event, procs int) []metrics.ProcStats {
	out := make([]metrics.ProcStats, procs)
	for _, e := range events {
		s := &out[e.Proc]
		switch e.Kind {
		case obs.SpanCompute:
			s.ComputeTime += e.Dur
			s.Steps += e.B
		case obs.SpanComm:
			s.CommTime += e.Dur
		case obs.SpanIOQueue:
			s.IOQueueTime += e.Dur
		case obs.MarkSend:
			s.MsgsSent++
			s.BytesSent += e.B
		case obs.MarkRecv:
			s.MsgsRecv++
			s.BytesRecv += e.B
		case obs.MarkBlockLoad:
			s.BlocksLoaded++
		case obs.MarkBlockEvict:
			s.BlocksPurged++
		case obs.MarkPrefetch:
			s.PrefetchIssued++
		case obs.MarkStealProbe:
			s.StealAttempts++
		case obs.MarkStealHit:
			s.StealHits++
		case obs.MarkTokenPass:
			s.TokensPassed++
		case obs.MarkComplete:
			s.StreamlinesCompleted++
		case obs.MarkKill:
			s.ProcsLost++
		case obs.MarkPark:
			s.ReleaseStalls++
		case obs.MarkAdopt:
			s.SeedsAdopted += e.A
		case obs.MarkFailover:
			s.MasterFailovers++
			s.SeedsAdopted += e.B
		}
	}
	return out
}

// foldedFields are the ProcStats counters foldEvents produces; each must
// equal the counter bit for bit.
var foldedFields = []string{
	"ComputeTime", "Steps", "CommTime", "IOQueueTime",
	"MsgsSent", "BytesSent", "MsgsRecv", "BytesRecv",
	"BlocksLoaded", "BlocksPurged", "PrefetchIssued",
	"StealAttempts", "StealHits", "TokensPassed",
	"StreamlinesCompleted", "ProcsLost", "MasterFailovers", "ReleaseStalls",
	"SeedsAdopted",
}

// unfoldedFields are the ProcStats fields the events cannot yet
// produce, each with its reason.
var unfoldedFields = map[string]string{
	"Proc":   "the processor index: the fold's key (Event.Proc), not a counter",
	"IOTime": "one subtraction across queue wait and transfer, so not bit-equal to the sum of the ioqueue and io spans",
	"IdleTime": "nothing writes it, while the kernel's idle spans sum to nonzero; " +
		"making it their sum or dropping it moves every summary's bytes",
	"EndTime":          "no event",
	"PeakMemoryBytes":  "no event",
	"ActivePeak":       "no event",
	"ReleaseStallTime": "no event: the stall is an idle span, which a park mark only attributes",
	"RingReforms":      "no event",
	"SendFailed":       "no event: a send to a dead peer is not marked",
	"PrefetchHits":     "no event",
	"PrefetchWasted":   "no event",
	"IOHiddenTime":     "no event",
	"PathlineSteps":    "no event",
	"EpochCrossings":   "no event",
	"TraceEvents":      "no event: the observer's own volume",
	"TraceBytes":       "no event: the observer's own volume",
}

// TestFoldFieldsCoverProcStats holds the two lists to ProcStats: every
// field is folded or has a reason not to be, and no name is stale.
func TestFoldFieldsCoverProcStats(t *testing.T) {
	fields := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(metrics.ProcStats{})) {
		fields[f.Name] = true
	}
	seen := map[string]bool{}
	for _, name := range foldedFields {
		if _, dup := unfoldedFields[name]; dup {
			t.Errorf("ProcStats.%s is both folded and unfolded", name)
		}
		seen[name] = true
	}
	for name := range unfoldedFields {
		seen[name] = true
	}
	for name := range fields {
		if !seen[name] {
			t.Errorf("ProcStats.%s is neither folded from events nor listed with a reason", name)
		}
	}
	for name := range seen {
		if !fields[name] {
			t.Errorf("%s names no ProcStats field", name)
		}
	}
}

// TestEventFoldMatchesCounters runs every dataset and algorithm at small
// scale over four machines (sparse/8; dense/16; unsteady with both
// prefetch policies and staggered injection; a kill with burst injection
// and neighbor prefetch), folds each traced run's events per processor
// and compares every folded field with its counter. Static allocation's
// OOM and its refusal to recover from a kill are skipped by design.
func TestEventFoldMatchesCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 48 small-scale cells")
	}
	sc := SmallScale()
	variants := []Key{
		{Seeding: Sparse, Procs: 8},
		{Seeding: Dense, Procs: 16},
		{Seeding: Sparse, Procs: 8, Unsteady: true, Prefetch: prefetch.Both, Injection: injectStagger},
		{Seeding: Sparse, Procs: 8, Faults: faultsKill, Injection: injectBurst, Prefetch: prefetch.Neighbor},
	}
	ran, nonzero := 0, map[string]bool{}
	for _, ds := range datasets() {
		for _, v := range variants {
			prob, err := BuildInjectedProblem(ds, v.Seeding, sc, v.Unsteady, v.Injection)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range core.Algorithms() {
				k := v
				k.Dataset, k.Alg = ds, alg
				cfg := KeyMachineConfig(k, sc)
				cfg.Trace = obs.New()
				res, err := core.Run(prob, cfg)
				var oom *store.OOMError
				var ue *faults.UnrecoverableError
				if alg == core.StaticAlloc && (errors.As(err, &oom) || errors.As(err, &ue)) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", k.Label(), err)
				}
				ran++
				folded := foldEvents(cfg.Trace.Events(), cfg.Procs)
				for i, want := range res.PerProc {
					got, ref := reflect.ValueOf(folded[i]), reflect.ValueOf(want)
					for _, name := range foldedFields {
						g, w := got.FieldByName(name), ref.FieldByName(name)
						if g.Interface() != w.Interface() {
							t.Errorf("%s proc %d: %s folds to %v, counter %v", k.Label(), i, name, g, w)
						}
						nonzero[name] = nonzero[name] || !w.IsZero()
					}
				}
			}
		}
	}
	t.Logf("%d cells folded", ran)
	for _, name := range foldedFields {
		if !nonzero[name] {
			t.Errorf("%s is zero in every cell: its comparison is vacuous", name)
		}
	}
}
