// Package serve is the campaign-as-a-service layer: a long-lived HTTP
// server that accepts campaign cells (canonical experiments.Key JSON,
// DESIGN.md §14) and returns their metrics.Summary rows, backed by a
// persistent content-addressed result cache.
//
// The request path is three nested caches, cheapest first: the disk
// store (survives restarts, shared across processes), the in-memory
// experiments.Campaign memo (plus its singleflight, so N concurrent
// identical requests compute once), and finally the simulation itself.
// Because every cell is a deterministic function of its Key, a cached
// response's summary bytes are identical to a freshly computed one —
// the server splices stored canonical encodings verbatim rather than
// re-marshaling decoded structs.
//
// Multi-tenancy is fair, not first-come-first-served: requests carry an
// X-Tenant header, each tenant gets a bounded FIFO, and the worker pool
// round-robins across tenants (see sched.go). Past the per-tenant
// admission cap the server answers 429; during a drain, 503; past the
// request timeout, 504 — but the computation keeps running so the cache
// is warm for the retry.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Schema versions the response layout; bump on breaking shape changes
// so clients can discriminate.
const Schema = "slserve/v1"

// Config assembles a Server. The zero value is not useful: ScaleName is
// required.
type Config struct {
	// ScaleName names the campaign scale ("small", "default", "paper")
	// the server computes at. It scopes the disk cache and is echoed in
	// every response.
	ScaleName string
	// Scale optionally overrides the named scale's parameters (tests use
	// tiny custom scales); nil resolves ScaleName via ScaleByName.
	Scale *experiments.Scale
	// Workers bounds concurrent cell computations; <=0 means
	// runtime.NumCPU().
	Workers int
	// TenantLimit caps each tenant's outstanding (queued + running)
	// cells; <=0 means 64.
	TenantLimit int
	// Timeout bounds how long a request waits for its cells; 0 disables
	// the deadline. A timed-out computation continues in the background
	// and lands in the cache.
	Timeout time.Duration
	// CacheDir roots the persistent result store; empty disables disk
	// caching (memory-only).
	CacheDir string
	// Tune, when non-nil, adjusts every cell's machine configuration
	// (the slrun steal-parameter knobs). It must be deterministic — the
	// cache trusts Key identity alone — and it becomes part of the
	// server's identity: a cache directory must never be shared between
	// servers with different Tune functions.
	Tune func(*core.Config)
	// Log, when non-nil, receives one line per served cell and per cache
	// anomaly. Calls are serialized by the underlying campaign.
	Log func(string)
}

// Row is one served cell in a Response. Summary and Percentiles are
// spliced verbatim from canonical encodings, so equal keys yield
// byte-equal payloads no matter which cache tier answered.
type Row struct {
	// Label is the cell's human-readable campaign label.
	Label string `json:"label"`
	// Digest is the cell's content address (sha256 of the canonical key
	// encoding) — the handle for cache inspection.
	Digest string `json:"digest"`
	// Cached reports whether any cache tier (disk or memory) answered;
	// Source says which ("disk", "memory", "computed").
	Cached bool   `json:"cached"`
	Source string `json:"source"`
	// Error is the cell's deterministic failure, exclusive with Summary.
	Error string `json:"error,omitempty"`
	// Summary is the canonical metrics.Summary encoding.
	Summary json.RawMessage `json:"summary,omitempty"`
	// Percentiles is the cell's obs.Report block (the slbench -json
	// percentile schema), present only for observed requests.
	Percentiles json.RawMessage `json:"percentiles,omitempty"`
}

// Response is the body of every successful cell request.
type Response struct {
	// Schema is the Schema constant.
	Schema string `json:"schema"`
	// Scale echoes the server's campaign scale.
	Scale string `json:"scale"`
	// Rows holds one entry per requested cell, in request order.
	Rows []Row `json:"rows"`
}

// Server computes and caches campaign cells over HTTP. Create one with
// New; it implements http.Handler.
type Server struct {
	cfg     Config
	scale   experiments.Scale
	camp    *experiments.Campaign // unobserved population
	campObs *experiments.Campaign // observed population (separate memo: summaries differ)
	store   *Store                // nil when disk caching is off
	sched   *scheduler
	mux     *http.ServeMux
}

// New assembles a Server from cfg and starts its worker pool.
func New(cfg Config) (*Server, error) {
	sc := experiments.Scale{}
	if cfg.Scale != nil {
		sc = *cfg.Scale
	} else {
		var ok bool
		sc, ok = experiments.ScaleByName(cfg.ScaleName)
		if !ok {
			return nil, fmt.Errorf("serve: unknown scale %q", cfg.ScaleName)
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.TenantLimit <= 0 {
		cfg.TenantLimit = 64
	}
	s := &Server{cfg: cfg, scale: sc}
	s.camp = experiments.NewCampaign(sc)
	s.camp.Tune = cfg.Tune
	s.camp.Log = cfg.Log
	s.campObs = experiments.NewCampaign(sc)
	s.campObs.Tune = cfg.Tune
	s.campObs.Log = cfg.Log
	s.campObs.Observe = true
	if cfg.CacheDir != "" {
		st, err := OpenStore(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	s.sched = newScheduler(cfg.Workers, cfg.TenantLimit, s.execTask)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/cell", s.handleCell)
	s.mux.HandleFunc("/v1/cells", s.handleCells)
	return s, nil
}

// ServeHTTP dispatches to the server's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admission (new submissions fail with errDraining → 503),
// lets every accepted cell finish and land in the cache, and returns
// when the workers have parked or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	return s.sched.drain(ctx)
}

// execTask serves one cell: disk store, then campaign memo (with its
// singleflight), then fresh computation — writing back to the store on
// the way out. Runs on a scheduler worker.
func (s *Server) execTask(t *task) {
	scope := Scope{Scale: s.cfg.ScaleName, Observed: t.observed}
	row := Row{Label: t.key.Label(), Digest: t.key.Digest()}
	if s.store != nil {
		e, ok, err := s.store.Get(scope, t.key)
		if err != nil && s.cfg.Log != nil {
			s.cfg.Log("serve: " + err.Error())
		}
		if ok {
			row.Cached = true
			row.Source = "disk"
			row.Error = e.Error
			row.Summary = e.Summary
			row.Percentiles = e.Percentiles
			t.row = row
			return
		}
	}
	camp := s.camp
	if t.observed {
		camp = s.campObs
	}
	out, hit := camp.Cached(t.key)
	if !hit {
		out = camp.Run(t.key)
	}
	row.Cached = hit
	if hit {
		row.Source = "memory"
	} else {
		row.Source = "computed"
	}
	var entry Entry
	if out.Err != nil {
		row.Error = out.Err.Error()
		entry.Error = row.Error
	} else {
		data, err := out.Summary.CanonicalJSON()
		if err != nil {
			// Unreachable for real summaries (plain finite numerics); if
			// it ever fires, fail the row and skip the cache rather than
			// persisting a malformed entry.
			row.Error = fmt.Sprintf("encode summary: %v", err)
			t.row = row
			return
		}
		row.Summary = data
		entry.Summary = data
	}
	if out.Obs != nil {
		data, err := json.Marshal(out.Obs)
		if err == nil {
			row.Percentiles = data
			entry.Percentiles = data
		}
	}
	if s.store != nil {
		if err := s.store.Put(scope, t.key, entry); err != nil && s.cfg.Log != nil {
			s.cfg.Log("serve: " + err.Error())
		}
	}
	t.row = row
}

// serveCells is the shared request tail: admit, wait (bounded by the
// configured timeout), respond.
func (s *Server) serveCells(w http.ResponseWriter, r *http.Request, keys []experiments.Key, observed bool) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "anon"
	}
	tasks, err := s.sched.submit(tenant, keys, observed)
	if err != nil {
		var sat *saturatedError
		switch {
		case errors.Is(err, errDraining):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		case errors.As(err, &sat):
			writeError(w, http.StatusTooManyRequests, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	resp := Response{Schema: Schema, Scale: s.cfg.ScaleName, Rows: make([]Row, 0, len(tasks))}
	for _, t := range tasks {
		select {
		case <-t.done:
			resp.Rows = append(resp.Rows, t.row)
		case <-ctx.Done():
			// The cells keep computing on the pool; the retry will hit
			// the cache.
			writeError(w, http.StatusGatewayTimeout, "request timed out; results will be cached when ready — retry")
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth answers liveness probes.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "schema": Schema, "scale": s.cfg.ScaleName})
}

// handleCell serves POST /v1/cell: the body is one canonical key
// encoding (the exact bytes (Key).CanonicalJSON emits, aliases
// welcome), ?observe=1 attaches the percentile recorder.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	k, err := experiments.ParseKey(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveCells(w, r, []experiments.Key{k}, observeParam(r))
}

// cellsRequest is the POST /v1/cells body: a batch of canonical key
// encodings plus the observation axis.
type cellsRequest struct {
	Cells   []json.RawMessage `json:"cells"`
	Observe bool              `json:"observe,omitempty"`
}

// handleCells serves POST /v1/cells: a strict JSON batch envelope.
func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req cellsRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "decode request: trailing data after JSON object")
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, "request has no cells")
		return
	}
	keys := make([]experiments.Key, len(req.Cells))
	for i, raw := range req.Cells {
		k, err := experiments.ParseKey(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("cell %d: %v", i, err))
			return
		}
		keys[i] = k
	}
	s.serveCells(w, r, keys, req.Observe || observeParam(r))
}

// observeParam reads the ?observe= query flag.
func observeParam(r *http.Request) bool {
	switch r.URL.Query().Get("observe") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// maxBodyBytes bounds request bodies; canonical key encodings are a few
// hundred bytes, so a megabyte is generous for any sane batch.
const maxBodyBytes = 1 << 20

// readBody drains a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("read request body: %w", err)
	}
	if len(body) == 0 {
		return nil, errors.New("empty request body")
	}
	return body, nil
}

// writeJSON marshals v as the response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// errorBody is the uniform non-200 response shape.
type errorBody struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	data, _ := json.Marshal(errorBody{Schema: Schema, Error: msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}
