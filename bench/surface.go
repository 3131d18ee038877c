package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// surface is one of the two product surfaces as a round sees it. begin
// and end bracket a round outside its clock: constructing a Campaign or
// a Server, draining, deleting a cache directory.
type surface interface {
	begin() error
	do(client int, o *op) result
	end() error
	close() error
}

// campaignSurface drives experiments.Campaign, what slbench runs. Two
// clients take cells from one queue and call Run, which is RunKeys'
// worker pool seen from outside: RunKeys itself hides per-cell latency.
// The untimed warm-up round goes through RunKeys (see setUp).
type campaignSurface struct {
	scale experiments.Scale
	camp  *experiments.Campaign
}

// begin starts every round on a fresh Campaign: nothing is memoized
// across rounds, within a round the problem memo is shared as in slbench.
func (s *campaignSurface) begin() error {
	s.camp = experiments.NewCampaign(s.scale)
	s.camp.Workers = clients
	return nil
}

func (s *campaignSurface) do(_ int, o *op) result {
	return campaignResult(o, s.camp.Run(o.key))
}

func campaignResult(o *op, out experiments.Outcome) result {
	res := result{status: http.StatusOK, label: o.key.Label()}
	if out.Err != nil {
		res.errText = out.Err.Error()
		return res
	}
	data, err := out.Summary.CanonicalJSON()
	if err != nil {
		res.status = http.StatusInternalServerError
		res.errText = err.Error()
		return res
	}
	res.summary = data
	return res
}

func (s *campaignSurface) end() error   { return nil }
func (s *campaignSurface) close() error { return nil }

// responseWriter is the in-process http.ResponseWriter of one client.
// Loopback HTTP is out of scope: it would measure the kernel's TCP stack.
type responseWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (w *responseWriter) Header() http.Header { return w.header }
func (w *responseWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *responseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(p)
}

func (w *responseWriter) reset() {
	clear(w.header)
	w.code = 0
	w.buf.Reset()
}

// serverSurface drives an in-process serve.Server, what slserve runs,
// one single-cell POST /v1/cell per op.
type serverSurface struct {
	scratch string // the run's scratch directory
	// perRound gives every round a new Server on an empty cache
	// directory (serve_cold); otherwise one Server lives for the run.
	perRound bool
	disk     bool // the Server has a CacheDir
	dir      string
	srv      *serve.Server
	writers  [clients]responseWriter
	tenants  [clients]string
}

func newServerSurface(scratch string, perRound, disk bool) *serverSurface {
	s := &serverSurface{scratch: scratch, perRound: perRound, disk: disk}
	for c := range s.writers {
		s.writers[c].header = http.Header{}
		s.tenants[c] = fmt.Sprintf("client-%d", c)
	}
	return s
}

// open starts a Server; with disk it serves from dir, creating an empty
// one when dir is "".
func (s *serverSurface) open(dir string) error {
	if s.disk && dir == "" {
		d, err := os.MkdirTemp(s.scratch, "cache-")
		if err != nil {
			return err
		}
		dir = d
	}
	srv, err := serve.New(serve.Config{ScaleName: scaleName, Workers: clients, CacheDir: dir})
	if err != nil {
		return err
	}
	s.srv, s.dir = srv, dir
	return nil
}

// shut drains the Server; the cache directory stays.
func (s *serverSurface) shut() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Drain(ctx)
	s.srv = nil
	return err
}

func (s *serverSurface) begin() error {
	if !s.perRound {
		return nil
	}
	return s.open("")
}

func (s *serverSurface) end() error {
	if !s.perRound {
		return nil
	}
	if err := s.shut(); err != nil {
		return err
	}
	return os.RemoveAll(s.dir)
}

func (s *serverSurface) close() error { return s.shut() }

func (s *serverSurface) do(client int, o *op) result {
	w := &s.writers[client]
	w.reset()
	req, err := http.NewRequest(http.MethodPost, "/v1/cell", bytes.NewReader(o.body))
	if err != nil {
		return result{status: http.StatusInternalServerError, body: []byte(err.Error())}
	}
	req.Header.Set("X-Tenant", s.tenants[client])
	s.srv.ServeHTTP(w, req)
	return result{status: w.code, body: w.buf.Bytes()}
}
