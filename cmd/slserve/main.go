// Command slserve runs the campaign as a long-lived service: an HTTP
// server that accepts campaign cells as canonical key JSON (DESIGN.md
// §14) and answers with their metrics summaries, backed by one
// content-addressed result cache: the -cache directory, which survives
// restarts, or without the flag a bounded map in memory. Because every
// cell is a deterministic function of its key, a cache hit — from either
// — is byte-identical to a fresh computation.
//
// Endpoints:
//
//	GET  /healthz   liveness probe
//	POST /v1/cell   body: one canonical key object; ?observe=1 adds the
//	                percentile block (the slbench -json schema)
//	POST /v1/cells  body: {"cells":[<key>...],"observe":bool}
//
// Requests carry an optional X-Tenant header; each tenant gets a
// bounded queue and the worker pool round-robins across tenants, so one
// tenant's flood cannot starve another's single cell. Past the
// per-tenant cap the server answers 429; past -timeout, 504 (the
// computation continues and lands in the cache for the retry); during
// shutdown, 503; to a request body over 1 MiB, 413. SIGINT/SIGTERM
// starts a graceful drain: admission stops, in-flight cells finish and
// persist, then the process exits.
//
// Usage examples:
//
//	slserve -scale small -cache /var/cache/slserve
//	curl -s -X POST localhost:8080/v1/cell -d \
//	  '{"dataset":"astro","seeding":"sparse","alg":"ondemand","procs":8}'
//	curl -s -X POST 'localhost:8080/v1/cell?observe=1' -H 'X-Tenant: viz' \
//	  -d '{"dataset":"fusion","seeding":"dense","alg":"hybrid","procs":64,"unsteady":true}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: ctx cancellation is the SIGTERM
// path, triggering a graceful drain.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
		scaleName    = fs.String("scale", "small", "campaign scale: small, default, or paper")
		workers      = fs.Int("workers", 0, "concurrent cell computations; 0 means one per CPU core")
		tenantLimit  = fs.Int("tenant-limit", 64, "max outstanding cells per tenant before 429")
		timeout      = fs.Duration("timeout", 2*time.Minute, "per-request wait bound before 504; 0 waits forever")
		cacheDir     = fs.String("cache", "", "persistent result cache directory (empty = memory-only, bounded)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for in-flight cells")
		verbose      = fs.Bool("v", false, "log each computed cell and cache anomaly to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "slserve: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	cfg := serve.Config{
		ScaleName:   *scaleName,
		Workers:     *workers,
		TenantLimit: *tenantLimit,
		Timeout:     *timeout,
		CacheDir:    *cacheDir,
	}
	if *verbose {
		cfg.Log = func(line string) { fmt.Fprintln(stderr, line) }
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "slserve: %v\n", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "slserve: %v\n", err)
		return 1
	}
	cache := *cacheDir
	if cache == "" {
		cache = "memory-only"
	}
	fmt.Fprintf(stdout, "slserve: listening on http://%s (scale %s, cache %s)\n", ln.Addr(), *scaleName, cache)

	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	select {
	case err := <-served:
		// Serve only returns on listener failure here; Shutdown's
		// ErrServerClosed arrives on the drain path below.
		fmt.Fprintf(stderr, "slserve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "slserve: draining (bound %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(stderr, "slserve: drain incomplete: %v\n", err)
		code = 1
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "slserve: shutdown: %v\n", err)
		code = 1
	}
	<-served // Serve has returned ErrServerClosed
	fmt.Fprintln(stdout, "slserve: drained")
	return code
}
