package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/experiments"
)

// scaleName is the campaign scale every workload runs at. Default-scale
// cells take seconds each; see README "Out of scope".
const scaleName = "small"

// clients is both the closed-loop client count and the Workers setting
// of every Campaign and Server, fixed regardless of nproc: with one
// worker at GOMAXPROCS=2 the run measures runtime.futex, not the program
// (README "Why Workers=1 is not measured").
const clients = 2

// hitRequests is the per-round request count of the two hit workloads.
const hitRequests = 100000

// hitSlice is how many consecutive requests of a hit workload are judged
// together (run.go cleanestSlices): 1000 requests run for 10 to 40 ms,
// far below the length of a burst of host noise.
const hitSlice = 1000

// cell is one campaign cell as the benchmark generates it. The program
// only ever sees its key/v1 JSON encoding.
type cell struct {
	dataset, seeding, alg string
	procs                 int
	unsteady              bool
	prefetch, injection   string
	faults                string
}

// json renders the canonical key/v1 encoding: fixed field order,
// disabled axes omitted. newOp checks the result against Key.Digest, so
// a generator that drifts from the codec fails set-up, not a cache.
func (c cell) json() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"v":"key/v1","dataset":%q,"seeding":%q,"alg":%q,"procs":%d`,
		c.dataset, c.seeding, c.alg, c.procs)
	if c.unsteady {
		b.WriteString(`,"unsteady":true`)
	}
	if c.prefetch != "" {
		fmt.Fprintf(&b, `,"prefetch":%q`, c.prefetch)
	}
	if c.injection != "" {
		fmt.Fprintf(&b, `,"injection":%q`, c.injection)
	}
	if c.faults != "" {
		fmt.Fprintf(&b, `,"faults":%q`, c.faults)
	}
	b.WriteString("}")
	return []byte(b.String())
}

var (
	datasets   = []string{"astro", "fusion", "thermal"}
	seedings   = []string{"sparse", "dense"}
	algorithms = []string{"static", "ondemand", "hybrid", "stealing"}
	prefetches = []string{"", "neighbor", "temporal", "both"}
	injections = []string{"", "stagger", "burst", "rate"}
)

// paperSweepCells is the paper's Figures 5-16 campaign: every steady
// cell of the sweep, each problem integrated 12 times (4 algorithms x 3
// processor counts).
func paperSweepCells(procCounts []int) []cell {
	var out []cell
	for _, ds := range datasets {
		for _, sd := range seedings {
			for _, alg := range algorithms {
				for _, p := range procCounts {
					out = append(out, cell{dataset: ds, seeding: sd, alg: alg, procs: p})
				}
			}
		}
	}
	return out
}

// serveColdCells is one cell per distinct problem (dataset x seeding x
// steady/unsteady x injection schedule), at the top processor count,
// with the algorithm, prefetch policy and kill scenario rotated across
// them so no problem is integrated twice and every runtime layer is
// used. static never meets kill (static allocation cannot recover: that
// cell is a typed failure, not a measurement), and the steady all-at-t0
// cells always prefetch so none coincides with a paper_sweep cell.
func serveColdCells(top int) []cell {
	var out []cell
	i := 0
	for _, ds := range datasets {
		for _, sd := range seedings {
			for _, unsteady := range []bool{false, true} {
				for _, inj := range injections {
					c := cell{dataset: ds, seeding: sd, procs: top, unsteady: unsteady, injection: inj}
					c.alg = algorithms[(i+i/4)%4]
					c.prefetch = prefetches[(i/4+i/16)%4]
					if !unsteady && inj == "" && c.prefetch == "" {
						c.prefetch = prefetches[1+i%3]
					}
					if i%3 == 2 && c.alg != "static" {
						c.faults = "kill"
					}
					out = append(out, c)
					i++
				}
			}
		}
	}
	return out
}

// problemID names the problem a cell integrates: what the Campaign's
// problem memo shares between the cells of a sweep.
type problemID struct {
	ds       experiments.Dataset
	seeding  experiments.Seeding
	unsteady bool
	inject   experiments.Injection
}

func problemOf(k experiments.Key) problemID {
	return problemID{k.Dataset, k.Seeding, k.Unsteady, k.Injection}
}

// op is one unit of client work: a cell, its generated encoding, and
// what the first fully verified execution learned about it.
type op struct {
	body   []byte          // key/v1 JSON, the only form the program receives
	digest string          // sha256(body), equal to Key.Digest()
	key    experiments.Key // ParseKey(body), for the Campaign surface
	counts simCounts       // simulated statistics of the cell, from its summary
	// expect is the verified response body of a hit workload: the server
	// splices stored bytes verbatim, so every later hit must equal it.
	expect []byte
}

func newOp(c cell) (op, error) {
	body := c.json()
	k, err := experiments.ParseKey(body)
	if err != nil {
		return op{}, fmt.Errorf("generated key %s: %w", body, err)
	}
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	if k.Digest() != digest {
		return op{}, fmt.Errorf("generated key %s is not canonical: digest %s, Key.Digest %s", body, digest, k.Digest())
	}
	return op{body: body, digest: digest, key: k}, nil
}

// workload is a fixed op set plus how a round draws from it.
type workload struct {
	name  string
	scale experiments.Scale // scaleName, resolved
	// source is the response tier the workload is about ("computed",
	// "disk", "memory"); empty for the Campaign surface, which has none.
	source string
	// tailPct is the highest percentile with at least ten samples beyond
	// it (workload.opTail).
	tailPct  float64
	ops      []op
	perRound int // ops issued per round
}

// sizes shrinks a workload for the smoke test; the zero value is the
// benchmark's real size.
type sizes struct {
	stride      int // keep every stride-th op of each set (0 or 1: all)
	hitRequests int // requests per hit-workload round (0: hitRequests)
}

// quick reports whether the sizes are the smoke test's.
func (sz sizes) quick() bool { return sz != sizes{} }

var workloadNames = []string{"paper_sweep", "serve_cold", "serve_disk", "serve_memory"}

func buildWorkload(name string, sz sizes) (*workload, error) {
	sc, ok := experiments.ScaleByName(scaleName)
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", scaleName)
	}
	top := sc.ProcCounts[len(sc.ProcCounts)-1]
	paper := paperSweepCells(sc.ProcCounts)
	cold := serveColdCells(top)
	w := &workload{name: name, scale: sc}
	var cells []cell
	switch name {
	case "paper_sweep":
		cells, w.tailPct = paper, 90
	case "serve_cold":
		cells, w.source, w.tailPct = cold, "computed", 90
	case "serve_disk":
		cells, w.source, w.tailPct = append(paper, cold...), "disk", 99
	case "serve_memory":
		cells, w.source, w.tailPct = append(paper, cold...), "memory", 99
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	stride := max(sz.stride, 1)
	seen := map[string]bool{}
	for i := 0; i < len(cells); i += stride {
		o, err := newOp(cells[i])
		if err != nil {
			return nil, err
		}
		if seen[o.digest] {
			return nil, fmt.Errorf("workload %s repeats cell %s", name, o.body)
		}
		seen[o.digest] = true
		w.ops = append(w.ops, o)
	}
	w.perRound = len(w.ops)
	if w.hit() {
		w.perRound = hitRequests
		if sz.hitRequests > 0 {
			w.perRound = sz.hitRequests
		}
	}
	return w, nil
}

// hit reports whether every timed op is answered from a cache tier.
func (w *workload) hit() bool { return w.source == "disk" || w.source == "memory" }

// sequence is one round's op order: the workload's fixed multiset of ops
// (each population member perRound/len(ops) times, the remainder going
// to the first members), permuted by the seed. Counts and digests are
// therefore seed-independent; only order and, through the shared cursor,
// client assignment change.
func (w *workload) sequence(seed int64) []int32 {
	seq := make([]int32, w.perRound)
	for i := range seq {
		seq[i] = int32(i % len(w.ops))
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// roundCounts sums the simulated statistics one round delivers.
func (w *workload) roundCounts(seq []int32) simCounts {
	var c simCounts
	for _, i := range seq {
		c.add(w.ops[i].counts)
	}
	return c
}
