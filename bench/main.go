// Command bench is the repository's benchmark (BENCHMARK.json): four
// workloads over the two product surfaces, experiments.Campaign (what
// slbench runs) and an in-process serve.Server (what slserve runs),
// seven end-to-end metrics from an untraced run and a per-layer ledger
// from a traced one. README.md defines every name printed here.
//
//	go run -C bench . -workload paper_sweep -seed 1 -seconds 12 -trace 0
//	go run -C bench . -workload serve_disk -seed 1 -trace 1 -spans spans.json
//	go run -C bench . -aa 5
//	cd bench && go run . -workload serve_cold -update-reference
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// metricValue is one metric as the last line of standard output carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is that last line: exactly these four keys.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newOutput accounts for every op the session has issued so far, set-up
// included: a failure while filling a cache is a failed op too.
func newOutput(s *session) *output {
	attempted, failed := int(s.v.attempted.Load()), s.v.failed()
	if failed > 0 {
		fmt.Fprintf(s.cfg.log, "bench: %d of %d ops failed %v; first: %s\n", failed, attempted, s.v.failures, s.v.first)
	}
	return &output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
}

func (o *output) metric(name string, value float64) {
	o.Metrics[name] = metricValue{Value: value, Unit: unitOf(name)}
}

// host is printed with every run: the numbers mean nothing without it.
// GOMAXPROCS and GOGC are recorded, never set.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go"`
	Clients    int    `json:"clients_and_workers"`
}

func hostBlock() host {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), clients}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{log: stderr}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "permutes op order (and so client assignment); the op set is fixed")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "timed section: whole rounds until this many seconds have passed, at least 5 rounds")
	fs.IntVar(&cfg.rounds, "rounds", 0, "run exactly this many timed rounds instead of -seconds")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, spans); 0: the untraced run (end-to-end metrics)")
	fs.StringVar(&cfg.spans, "spans", "", "keep the traced run's span file here (default: scratch, removed on exit)")
	fs.BoolVar(&cfg.update, "update-reference", false, "record reference/<workload>.json instead of checking against it; run from bench/")
	aa := fs.Int("aa", 0, "noise self-check: N alternating runs per set of this binary on every workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 || math.IsNaN(cfg.seconds) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	cfg.trace = *trace == 1

	h, _ := json.Marshal(hostBlock())
	fmt.Fprintf(stderr, "bench: host %s claim: null\n", h)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *aa > 0 {
		// An interrupt ends the child run, which cleans up after itself;
		// selfCheck then returns the context's error.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-sig
			cancel()
		}()
		if err := selfCheck(ctx, *aa, cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	scratch, err := newScratch()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer removeScratch(scratch)
	go func() { // a killed run must not leave cache directories behind
		<-sig
		removeScratch(scratch)
		os.Exit(130)
	}()
	cfg.scratch = scratch
	run := runUntraced
	if cfg.trace {
		run = runTraced
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}
