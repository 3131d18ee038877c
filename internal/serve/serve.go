// Package serve is the campaign-as-a-service layer: a long-lived HTTP
// server that accepts campaign cells (canonical experiments.Key JSON,
// DESIGN.md §14) and returns their metrics.Summary rows, backed by a
// content-addressed result cache.
//
// The request path is one cache and the simulation behind it: the Store
// answers (from its directory, which survives restarts and is shared
// across processes, or — without one — from a bounded map in memory),
// or the server's experiments.Campaign computes the cell and the
// Store keeps it. The campaign shares one execution between identical
// requests in flight and the write-back happens before it lets any of
// them go, so N concurrent identical requests compute once and every
// later one hits. Because every cell is a deterministic function of its
// Key, a cached response's summary bytes are identical to a freshly
// computed one — the server splices stored canonical encodings verbatim
// rather than re-marshaling decoded structs.
//
// Multi-tenancy is fair, not first-come-first-served: requests carry an
// X-Tenant header, each tenant gets a bounded FIFO, and the worker pool
// round-robins across tenants (see sched.go). Past the per-tenant
// admission cap the server answers 429; during a drain, 503; past the
// request timeout, 504 — but the computation keeps running so the cache
// is warm for the retry; to a body over maxBodyBytes, 413.
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
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
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
	// Scale optionally supplies a custom scale (tests use tiny ones); nil
	// resolves ScaleName via ScaleByName. Its Name must be ScaleName and
	// must not name a built-in scale, since the name scopes the cache.
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
	// CacheDir roots the persistent result store; empty keeps results in
	// memory instead, up to memCacheBytes of them.
	CacheDir string
	// Log, when non-nil, receives one line per computed cell and per
	// cache anomaly. Calls are serialized by the Server.
	Log func(string)
}

// memCacheBytes bounds the result payloads a Server without a CacheDir
// keeps: room for tens of thousands of cells (a summary with its
// percentile block is about a kilobyte), a fixed ceiling on a process
// that serves for months.
const memCacheBytes = 64 << 20

// Row is one served cell in a Response. Summary and Percentiles are
// spliced verbatim from canonical encodings, so equal keys yield
// byte-equal payloads whether the cache or a computation answered.
type Row struct {
	// Label is the cell's human-readable campaign label.
	Label string `json:"label"`
	// Digest is the cell's content address (sha256 of the canonical key
	// encoding) — the handle for cache inspection.
	Digest string `json:"digest"`
	// Cached reports whether the cache answered; Source names its medium
	// ("disk", "memory") or says "computed".
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
	cfg   Config
	camp  *experiments.Campaign // computes what the store misses, retains nothing
	store *Store
	sched *scheduler
	mux   *http.ServeMux
}

// New assembles a Server from cfg and starts its worker pool.
func New(cfg Config) (*Server, error) {
	sc, builtin := experiments.ScaleByName(cfg.ScaleName)
	switch {
	case cfg.Scale == nil && !builtin:
		return nil, fmt.Errorf("serve: unknown scale %q", cfg.ScaleName)
	case cfg.Scale != nil && (builtin || cfg.Scale.Name != cfg.ScaleName):
		return nil, fmt.Errorf("serve: custom scale %q served as %q: the name scopes the cache, so a custom scale needs its own, neither another's nor a built-in one", cfg.Scale.Name, cfg.ScaleName)
	case cfg.Scale != nil:
		sc = *cfg.Scale
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.TenantLimit <= 0 {
		cfg.TenantLimit = 64
	}
	if log := cfg.Log; log != nil {
		// One lock for every line, the workers' and the campaign's alike.
		var mu sync.Mutex
		cfg.Log = func(line string) {
			mu.Lock()
			defer mu.Unlock()
			log(line)
		}
	}
	s := &Server{cfg: cfg, camp: experiments.NewCampaign(sc), store: newMemStore(memCacheBytes)}
	s.camp.Log = cfg.Log
	if cfg.CacheDir != "" {
		var err error
		if s.store, err = OpenStore(cfg.CacheDir); err != nil {
			return nil, err
		}
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

// execTask serves one cell on a scheduler worker: from the store, or by
// computing it. The write-back runs inside the campaign's flight, and a
// call that takes a flight looks in the store once more before it
// executes, so a request that misses while an identical one is between
// its write-back and the end of its flight finds the entry rather than
// computing it again.
func (s *Server) execTask(t *task) {
	scope := Scope{Scale: s.cfg.ScaleName, Observed: t.observed}
	t.row = Row{Label: t.key.Label(), Digest: t.key.Digest(), Cached: true, Source: s.store.tier}
	e, have, err := s.store.Get(scope, t.key)
	s.logErr(err)
	if !have {
		t.row.Cached, t.row.Source = false, "computed"
		lookup := func() (out experiments.Outcome, hit bool) {
			e, hit, err = s.store.Get(scope, t.key)
			s.logErr(err)
			if hit {
				out, hit = outcomeOf(t.key, e)
			}
			if have = hit; hit {
				t.row.Cached, t.row.Source = true, s.store.tier
			}
			return out, hit
		}
		out := s.camp.Compute(t.key, t.observed, lookup, func(out experiments.Outcome) {
			if e, have = entryOf(out); have {
				s.logErr(s.store.Put(scope, t.key, e))
			}
		})
		if !have { // the flight was another request's
			e, _ = entryOf(out)
		}
	}
	t.row.Error, t.row.Summary, t.row.Percentiles = e.Error, e.Summary, e.Percentiles
}

// entryOf encodes an outcome as the payload it is cached and served as.
// ok is false for a summary that does not encode — unreachable for real
// ones (plain finite numerics); if it ever fires the row fails with the
// reason and the cache is skipped rather than handed a made-up entry.
func entryOf(out experiments.Outcome) (e Entry, ok bool) {
	if out.Err != nil {
		e.Error = out.Err.Error()
	} else if data, err := out.Summary.CanonicalJSON(); err != nil {
		return Entry{Error: fmt.Sprintf("encode summary: %v", err)}, false
	} else {
		e.Summary = data
	}
	if out.Obs != nil {
		if data, err := json.Marshal(out.Obs); err == nil {
			e.Percentiles = data
		}
	}
	return e, true
}

// outcomeOf decodes a cached payload into the outcome entryOf encodes it
// from, for the requests that share a flight whose lookup hit. ok is
// false for percentiles that are not an obs.Report.
func outcomeOf(k experiments.Key, e Entry) (out experiments.Outcome, ok bool) {
	out.Key = k
	if e.Error != "" {
		out.Err = errors.New(e.Error)
	} else if sum, err := metrics.ParseSummary(e.Summary); err != nil {
		return out, false
	} else {
		out.Summary = sum
	}
	if len(e.Percentiles) > 0 {
		out.Obs = new(obs.Report)
		if err := json.Unmarshal(e.Percentiles, out.Obs); err != nil {
			return out, false
		}
	}
	return out, true
}

// logErr reports a cache anomaly; the request goes on without the cache.
func (s *Server) logErr(err error) {
	if err != nil && s.cfg.Log != nil {
		s.cfg.Log("serve: " + err.Error())
	}
}

// serveCells is the shared request tail: admit, wait (bounded by the
// configured timeout), respond.
func (s *Server) serveCells(w http.ResponseWriter, r *http.Request, keys []experiments.Key, observed bool) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "anon"
	}
	if len(keys) > s.cfg.TenantLimit {
		// Admission is all-or-nothing, so this batch could never be admitted.
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d cells exceeds the per-tenant limit of %d outstanding cells: split it", len(keys), s.cfg.TenantLimit))
		return
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
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(encodeResponse(resp))
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
	body, ok := readBody(w, r)
	if !ok {
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
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req cellsRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if _, err := dec.Token(); err != io.EOF {
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

// readBody drains a bounded request body, or answers the request: 413
// past maxBodyBytes, 400 for an empty or unreadable body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	case err != nil:
		writeError(w, http.StatusBadRequest, "read request body: "+err.Error())
	case len(body) == 0:
		writeError(w, http.StatusBadRequest, "empty request body")
	default:
		return body, true
	}
	return nil, false
}

// encodeResponse renders resp as json.Marshal does, plus a newline — the
// bytes writeJSON would write, which FuzzResponseEncoding pins — into
// one buffer sized up front. Summary and Percentiles are spliced as they
// are, where json.Marshal would re-scan them to compact them: every
// payload a Server serves is already compact, canonical or cached by Put
// from a canonical encoding.
func encodeResponse(resp Response) []byte {
	n := len(`{"schema":"","scale":"","rows":[]}`+"\n") + len(resp.Schema) + len(resp.Scale)
	for _, r := range resp.Rows {
		n += len(`{"label":"","digest":"","cached":false,"source":"","error":"","summary":,"percentiles":},`) +
			len(r.Label) + len(r.Digest) + len(r.Source) + len(r.Error) + len(r.Summary) + len(r.Percentiles)
	}
	b := make([]byte, 0, n)
	b = append(b, `{"schema":`...)
	b = appendString(b, resp.Schema)
	b = append(b, `,"scale":`...)
	b = appendString(b, resp.Scale)
	b = append(b, `,"rows":`...)
	if resp.Rows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, r := range resp.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"label":`...)
			b = appendString(b, r.Label)
			b = append(b, `,"digest":`...)
			b = appendString(b, r.Digest)
			b = append(b, `,"cached":`...)
			b = strconv.AppendBool(b, r.Cached)
			b = append(b, `,"source":`...)
			b = appendString(b, r.Source)
			if r.Error != "" {
				b = append(b, `,"error":`...)
				b = appendString(b, r.Error)
			}
			if len(r.Summary) > 0 {
				b = append(b, `,"summary":`...)
				b = append(b, r.Summary...)
			}
			if len(r.Percentiles) > 0 {
				b = append(b, `,"percentiles":`...)
				b = append(b, r.Percentiles...)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// appendString appends s quoted as encoding/json quotes it. A string
// that needs no escape — every digest, source, scale and label — is
// copied; any other goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
