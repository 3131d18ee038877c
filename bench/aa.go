package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// selfCheck is -aa N: the A/A test of the benchmark itself. For every
// workload it makes N untraced runs for each of two sets, A and B, of
// this same binary, alternating between the sets and giving every run
// another seed, and one traced run per set. Two sets of the same code
// must agree: per metric and workload it prints both medians, how much
// worse B's is than A's, the spread (the distance between the quartiles
// as a share of the median) of each set and of all 2N runs together, and
// whether all of these stay within the metric's bound. The counts that
// must repeat exactly are compared between the two traced runs.
func selfCheck(ctx context.Context, n int, cfg config, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(workload string, seed int64, trace int) (*output, error) {
		cmd := exec.CommandContext(ctx, exe,
			"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 10 * time.Second
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, errOut.Bytes())
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res output
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: last line of output: %w", workload, seed, err)
		}
		return &res, nil
	}

	allPass := true
	p50 := map[string][2]float64{} // workload -> set medians of op_p50_ms
	for _, w := range workloadNames {
		var sets [2]map[string][]float64
		var traced [2]*output
		for set := range sets {
			sets[set] = map[string][]float64{}
		}
		seed := cfg.seed
		for i := 0; i < n; i++ {
			for set := range sets {
				res, err := child(w, seed, 0)
				if err != nil {
					return err
				}
				seed++
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				fmt.Fprintf(cfg.log, "bench: aa %s set %c run %d/%d done\n", w, 'A'+set, i+1, n)
			}
		}
		for set := range traced {
			if traced[set], err = child(w, seed, 1); err != nil {
				return err
			}
			seed++
		}

		fmt.Fprintf(stdout, "\n%s: %d runs per set\n", w, n)
		fmt.Fprintf(stdout, "%-14s %-5s %14s %14s %9s %9s %9s %10s %6s  %s\n",
			"metric", "unit", "median A", "median B", "B worse", "spread A", "spread B", "spread A+B", "bound", "")
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.better == "higher" {
				worse = -worse
			}
			sa, sb, sab := spread(a), spread(b), spread(append(slices.Clone(a), b...))
			// The driver holds every spread but setup_s's to the bound.
			ok := worse <= m.bound && (m.name == "setup_s" || (sa <= m.bound && sb <= m.bound && sab <= m.bound))
			verdict := "pass"
			if !ok {
				verdict, allPass = "FAIL", false
			}
			fmt.Fprintf(stdout, "%-14s %-5s %14.6g %14.6g %+8.2f%% %8.2f%% %8.2f%% %9.2f%% %6.2f  %s\n",
				m.name, m.unit, ma, mb, worse*100, sa*100, sb*100, sab*100, m.bound, verdict)
			if m.name == "op_p50_ms" {
				p50[w] = [2]float64{ma, mb}
			}
		}
		same := true
		for _, name := range exactRepeat {
			va, vb := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			if va != vb {
				same, allPass = false, false
				fmt.Fprintf(stdout, "exact-repeat FAIL: %s is %v in set A's traced run and %v in set B's\n", name, va, vb)
			}
		}
		if same {
			fmt.Fprintf(stdout, "exact-repeat pass: %d simulated counts and integrate.evals_per_step identical in both traced runs (core.steps %.0f)\n",
				len(exactRepeat)-1, traced[0].Metrics["core.steps"].Value)
		}
		if w == "serve_disk" || w == "serve_memory" {
			t := traced[0].Metrics
			fmt.Fprintf(stdout, "staged tier gap: serve.store_get_us %.3f - experiments.memo_hit_ns %.3f = %.3f us\n",
				t["serve.store_get_us"].Value, t["experiments.memo_hit_ns"].Value,
				t["serve.store_get_us"].Value-t["experiments.memo_hit_ns"].Value/1e3)
		}
	}
	d, m := p50["serve_disk"], p50["serve_memory"]
	fmt.Fprintf(stdout, "\nend-to-end tier gap: op_p50_ms serve_disk - serve_memory = %.3f us (set A), %.3f us (set B)\n",
		(d[0]-m[0])*1e3, (d[1]-m[1])*1e3)
	if !allPass {
		return fmt.Errorf("the two sets disagree beyond a bound, or a spread exceeds it; see the table")
	}
	return nil
}

// exactRepeat names the per-layer metrics that must be bit-identical
// between any two runs of one workload on one commit.
var exactRepeat = []string{
	"core.steps", "comm.msgs", "comm.bytes", "store.blocks_loaded", "store.blocks_purged",
	"prefetch.issued", "faults.seeds_adopted", "integrate.evals_per_step",
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile as a share
// of the median, the quartiles as Python's statistics.quantiles(v, n=4)
// gives them, which is what the driver computes.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based, exclusive method
		lo := int(math.Floor(pos))
		lo = min(max(lo, 1), len(s)-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / median(s)
}
