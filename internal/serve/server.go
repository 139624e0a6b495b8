// Package serve is the pattern-match serving layer: it mounts compiled
// RAPID/ANML designs behind an HTTP match API with the request path a
// production matching service needs — an admission controller with a
// bounded queue (429 + Retry-After under overload instead of unbounded
// queuing), a dispatcher that coalesces small concurrent requests into
// Engine.RunBatch calls by back-pressure (a batch is what queued while
// the previous one ran; nothing ever waits on a timer), per-design
// backend selection with automatic failover, health/readiness endpoints,
// and graceful drain that stops admissions, flushes in-flight batches, and
// shuts the telemetry listener down last so a final scrape can observe
// the drain.
//
// Command rapidserve is the CLI front end; package repro/serve/client is
// the Go client. See docs/SERVING.md for the API and capacity-planning
// guidance.
package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	rapid "repro"
	"repro/internal/telemetry"
)

// Response headers a gateway uses to cache idempotent match responses:
// DesignHashHeader carries the served design's program hash (so a cache
// keyed on it invalidates itself across hot reloads), and
// IdempotentHeader marks responses that are a pure function of (design
// hash, input bytes) — safe to replay for an identical request.
const (
	DesignHashHeader = "X-Rapid-Design-Hash"
	IdempotentHeader = "X-Rapid-Idempotent"
)

// Config sizes and wires a Server. The zero value serves on :8765 with
// telemetry disabled and production-shaped defaults for the queue and
// batching knobs.
type Config struct {
	// Addr is the main listen address. Default ":8765".
	Addr string
	// MetricsAddr optionally serves /metrics and /debug/vars on a separate
	// telemetry listener, shut down last during drain. The main listener
	// also exposes both paths when Telemetry is set.
	MetricsAddr string
	// QueueDepth caps each design's admission queue; requests beyond it
	// are refused with 429 + Retry-After. Default 64.
	QueueDepth int
	// MaxBatch bounds how many queued requests one Engine.RunBatch call
	// coalesces: the dispatcher takes what queued while the previous batch
	// ran, up to this many, and never waits for more. Default 16.
	MaxBatch int
	// RetryAfter is the backpressure hint attached to 429/503 responses.
	// Default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// Workers sizes each design's engine worker pool (<= 0: GOMAXPROCS).
	Workers int
	// CrossCheck makes failover-mode designs verify results against their
	// reference backend.
	CrossCheck bool
	// ArtifactDir enables the persistent tier of the compiled-artifact
	// cache: compiled designs are written there keyed by program hash and
	// loaded on startup instead of recompiling. Empty disables.
	ArtifactDir string
	// Placement makes the server place every compiled design (through a
	// process-wide macro-stamping cache, so manifests full of variants of
	// one rule family compile at stamping speed) and persist the placement
	// in the artifact cache; restarts then restore layouts instead of
	// re-running placement. false disables.
	Placement bool
	// TenantRate enables per-tenant token-bucket quotas: each tenant
	// (X-Tenant header; "default" when absent) is admitted at most
	// TenantRate requests/second with TenantBurst burst. <= 0 disables.
	TenantRate  float64
	TenantBurst int
	// Telemetry routes the serve.* metric family (and every backend's
	// stream accounting) into reg. nil disables.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8765"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Server is the pattern-match serving layer over one or more mounted
// designs. Construct with New, mount designs with AddDesign, then either
// Start a listener or mount Handler yourself; Shutdown drains gracefully.
type Server struct {
	cfg Config
	tel *serveMetrics
	mux *http.ServeMux

	baseCtx    context.Context
	cancelBase context.CancelFunc
	draining   atomic.Bool

	// admitMu fences admissions against queue teardown: submit holds a
	// read lock while enqueuing, Shutdown holds the write lock while
	// closing the queues, so an in-flight admission can never hit a
	// closed channel.
	admitMu     sync.RWMutex
	closeQueues sync.Once

	mu       sync.Mutex
	designs  map[string]*design
	order    []string
	compiled map[string]*rapid.Design

	diskCache  *artifactCache
	placeCache *rapid.PlacementCache
	quotas     *tenantQuotas

	dispatchers sync.WaitGroup

	httpSrv    *http.Server
	ln         net.Listener
	serveDone  chan struct{}
	serveErr   error
	metricsSrv *telemetry.MetricsServer
}

// New builds a server with no designs mounted. It fails only when the
// configured artifact-cache directory cannot be created.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:      cfg.withDefaults(),
		designs:  make(map[string]*design),
		compiled: make(map[string]*rapid.Design),
	}
	if s.cfg.ArtifactDir != "" {
		cache, err := openArtifactCache(s.cfg.ArtifactDir)
		if err != nil {
			return nil, err
		}
		s.diskCache = cache
	}
	if s.cfg.Placement {
		s.placeCache = rapid.NewPlacementCache()
	}
	s.quotas = newTenantQuotas(s.cfg.TenantRate, s.cfg.TenantBurst, nil)
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.tel = newServeMetrics(s.cfg.Telemetry)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/designs", s.handleDesigns)
	s.mux.HandleFunc("POST /v1/match", s.handleMatch)
	s.mux.HandleFunc("POST /v1/match/stream", s.handleMatchStream)
	if s.cfg.Telemetry != nil {
		h := telemetry.Handler(s.cfg.Telemetry)
		s.mux.Handle("/metrics", h)
		s.mux.Handle("/debug/vars", h)
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "rapidserve endpoints: /healthz /readyz /v1/designs POST /v1/match POST /v1/match/stream")
	})
	return s, nil
}

// AddDesign compiles (or fetches from the hash-keyed artifact cache) and
// mounts a design, starting its dispatcher. Safe to call before or after
// Start; re-using a mounted name is an error.
func (s *Server) AddDesign(spec DesignSpec) (DesignInfo, error) {
	if spec.Name == "" {
		return DesignInfo{}, fmt.Errorf("serve: design name is required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.designs[spec.Name]; ok {
		return DesignInfo{}, fmt.Errorf("serve: design %q already mounted", spec.Name)
	}
	d, err := s.compileDesign(spec)
	if err != nil {
		return DesignInfo{}, err
	}
	d.queue = make(chan *job, s.cfg.QueueDepth)
	d.tel = s.tel.forDesign(spec.Name)
	s.designs[spec.Name] = d
	s.order = append(s.order, spec.Name)
	s.dispatchers.Add(1)
	go s.dispatch(d)
	return d.info, nil
}

// Designs returns the mounted designs' descriptions in mount order.
func (s *Server) Designs() []DesignInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DesignInfo, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.designs[name].info)
	}
	return out
}

// lookup resolves a request's design name; an empty name resolves when
// exactly one design is mounted.
func (s *Server) lookup(name string) (*design, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		if len(s.order) == 1 {
			return s.designs[s.order[0]], nil
		}
		return nil, fmt.Errorf("serve: %d designs mounted, request must name one", len(s.order))
	}
	d, ok := s.designs[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown design %q", name)
	}
	return d, nil
}

// Handler returns the server's HTTP handler, for mounting without Start.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds the configured listeners and serves in the background.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	s.serveDone = make(chan struct{})
	go func() {
		defer close(s.serveDone)
		if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.serveErr = err
		}
	}()
	if s.cfg.MetricsAddr != "" && s.cfg.Telemetry != nil {
		ms, err := telemetry.ListenAndServe(s.cfg.MetricsAddr, s.cfg.Telemetry)
		if err != nil {
			_ = s.httpSrv.Close()
			<-s.serveDone
			return err
		}
		s.metricsSrv = ms
	}
	return nil
}

// Addr returns the main listener's address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// MetricsAddr returns the telemetry listener's address, or "".
func (s *Server) MetricsAddr() string {
	if s.metricsSrv == nil {
		return ""
	}
	return s.metricsSrv.Addr()
}

// Shutdown drains the server gracefully: it stops admissions (readiness
// flips to 503, new requests are refused with Retry-After), waits for
// in-flight requests and their batches to flush, stops the dispatchers,
// and shuts the telemetry listener down last. If ctx expires first, the
// remaining batch work is cancelled and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)

	var errs []error
	// Stop accepting connections and wait for in-flight handlers — each
	// admitted request completes inside its handler, so once the HTTP
	// server is down every queue is empty.
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			// Drain window expired: abort in-flight batch work.
			s.cancelBase()
			_ = s.httpSrv.Close()
			errs = append(errs, err)
		}
		<-s.serveDone
		if s.serveErr != nil {
			errs = append(errs, s.serveErr)
		}
	}

	// Flush and stop the dispatchers.
	s.closeQueues.Do(func() {
		s.mu.Lock()
		designs := make([]*design, 0, len(s.order))
		for _, name := range s.order {
			designs = append(designs, s.designs[name])
		}
		s.mu.Unlock()
		s.admitMu.Lock()
		for _, d := range designs {
			d.closeLocked()
		}
		s.admitMu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.dispatchers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelBase()
		<-done
		errs = append(errs, ctx.Err())
	}
	s.cancelBase()

	// The telemetry listener goes down last, so a final scrape can
	// observe the completed drain.
	if s.metricsSrv != nil {
		if err := s.metricsSrv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// --- HTTP handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		WriteErrorBody(w, http.StatusServiceUnavailable, CodeDraining,
			"draining", s.cfg.RetryAfter)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleDesigns(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Designs())
}

// matchRequest is the single-shot match API request body. Exactly one of
// Text, InputBase64, or Records supplies the input stream.
type matchRequest struct {
	// Design names the mounted design; optional when one design is mounted.
	Design string `json:"design,omitempty"`
	// Text is the input stream as literal text.
	Text string `json:"text,omitempty"`
	// InputBase64 is the input stream as base64 bytes.
	InputBase64 string `json:"input_base64,omitempty"`
	// Records is framed with the reserved separator per the paper's
	// flattened-array convention (leading separator, one after each record).
	Records []string `json:"records,omitempty"`
}

type reportJSON struct {
	Offset int    `json:"offset"`
	Code   int    `json:"code"`
	Site   string `json:"site,omitempty"`
}

type matchResponse struct {
	Design  string       `json:"design"`
	Hash    string       `json:"hash"`
	Backend string       `json:"backend"`
	Count   int          `json:"count"`
	Reports []reportJSON `json:"reports"`
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req matchRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		WriteErrorBody(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("serve: bad request body: %v", err), 0)
		return
	}
	if _, err := s.lookup(req.Design); err != nil {
		WriteErrorBody(w, http.StatusNotFound, CodeNotFound, err.Error(), 0)
		return
	}
	var input []byte
	var err error
	switch {
	case req.InputBase64 != "":
		input, err = base64.StdEncoding.DecodeString(req.InputBase64)
		if err != nil {
			WriteErrorBody(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("serve: bad input_base64: %v", err), 0)
			return
		}
	case len(req.Records) > 0:
		input = rapid.FrameStrings(req.Records...)
	default:
		input = []byte(req.Text)
	}
	d, reports, err := s.submitNamed(r.Context(), req.Design, tenantOf(r), input)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	// A match result is a pure function of (design hash, input): mark it
	// replayable so a gateway can cache it, keyed to survive hot reloads.
	w.Header().Set(DesignHashHeader, d.info.Hash)
	w.Header().Set(IdempotentHeader, "true")
	writeJSON(w, http.StatusOK, matchResponse{
		Design:  d.info.Name,
		Hash:    d.info.Hash,
		Backend: d.info.Backend,
		Count:   len(reports),
		Reports: toReportJSON(reports, 0),
	})
}

// streamResult is one NDJSON line of the streaming endpoint: the reports
// of one record, with offsets rebased to stream coordinates. A failed
// record carries the structured error fields instead of reports — the
// same code vocabulary as ErrorBody, so clients can type per-record
// failures and retry the retryable ones.
type streamResult struct {
	Index        int          `json:"index"`
	Offset       int          `json:"offset"`
	Count        int          `json:"count"`
	Reports      []reportJSON `json:"reports"`
	Error        string       `json:"error,omitempty"`
	Code         string       `json:"code,omitempty"`
	RetryAfterMS int64        `json:"retry_after_ms,omitempty"`
}

// handleMatchStream is the chunked streaming endpoint: the request body
// is a record stream framed with the reserved separator (0xFF), and the
// response streams one NDJSON result line per record as it completes.
// Each record passes through the same admission controller and batching
// dispatcher as single-shot requests, so streaming clients are subject to
// the same backpressure (surfaced as per-record error lines).
func (s *Server) handleMatchStream(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("design")
	if _, err := s.lookup(name); err != nil {
		WriteErrorBody(w, http.StatusNotFound, CodeNotFound, err.Error(), 0)
		return
	}
	tenant := tenantOf(r)
	// Results are flushed while the body is still being read. HTTP/1
	// net/http closes the request body at the first flush unless told the
	// handler is full duplex; without this call every stream longer than
	// the first read is cut short. HTTP/2 is duplex already and answers
	// ErrNotSupported, so the error carries nothing to act on.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	body := newRecordScanner(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	index := 0
	for {
		rec, offset, err := body.next()
		if rec == nil {
			if err != nil && err != io.EOF {
				_ = enc.Encode(streamResult{Index: index, Error: err.Error(), Code: CodeBadRequest})
			}
			return
		}
		line := streamResult{Index: index, Offset: offset}
		_, reports, err := s.submitNamed(r.Context(), name, tenant, rapid.FrameRecords(rec))
		if err != nil {
			_, code, retryAfter := s.errorStatus(err)
			line.Error = err.Error()
			line.Code = code
			line.RetryAfterMS = retryAfter.Milliseconds()
		} else {
			// Framed symbol k maps to stream offset offset-1+k (the
			// record's leading separator sits one symbol before it).
			line.Reports = toReportJSON(reports, offset-1)
			line.Count = len(line.Reports)
		}
		if encErr := enc.Encode(line); encErr != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		index++
		if errors.Is(err, ErrDraining) || errors.Is(err, context.Canceled) {
			return
		}
	}
}

// tenantOf resolves a request's tenant identity from the X-Tenant header.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// errorStatus maps admission, quota, and execution errors to (HTTP
// status, error code, Retry-After hint): 429 for a full queue or an empty
// tenant bucket, 503 while draining (all with Retry-After), 500 for
// execution failures.
func (s *Server) errorStatus(err error) (int, string, time.Duration) {
	switch {
	case errors.Is(err, ErrOverCapacity):
		return http.StatusTooManyRequests, CodeOverCapacity, s.cfg.RetryAfter
	case errors.Is(err, ErrQuotaExhausted):
		retryAfter := s.cfg.RetryAfter
		var qe *quotaExhaustedError
		if errors.As(err, &qe) && qe.wait > retryAfter {
			retryAfter = qe.wait
		}
		return http.StatusTooManyRequests, CodeQuotaExhausted, retryAfter
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, CodeDraining, s.cfg.RetryAfter
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client went away; the status code is moot.
		return http.StatusServiceUnavailable, CodeCanceled, 0
	default:
		return http.StatusInternalServerError, CodeInternal, 0
	}
}

// writeSubmitError writes the structured error response for a failed
// submission.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	status, code, retryAfter := s.errorStatus(err)
	WriteErrorBody(w, status, code, err.Error(), retryAfter)
}

func toReportJSON(reports []rapid.Report, rebase int) []reportJSON {
	out := make([]reportJSON, len(reports))
	for i, r := range reports {
		out[i] = reportJSON{Offset: r.Offset + rebase, Code: r.Code, Site: r.Site}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// recordScanner carves separator-framed records out of a streaming body,
// tracking each record's stream offset.
type recordScanner struct {
	r      io.Reader
	buf    []byte
	chunk  []byte // read buffer, reused across reads
	off    int    // stream offset of buf[0]
	err    error
	closed bool
}

func newRecordScanner(r io.Reader) *recordScanner {
	return &recordScanner{r: r}
}

// next returns the next non-empty record and the stream offset of its
// first symbol. It returns (nil, 0, err) at end of stream (err == io.EOF)
// or on a read error.
func (s *recordScanner) next() ([]byte, int, error) {
	for {
		// Look for a complete record in the buffer.
		start := 0
		for start < len(s.buf) && s.buf[start] == rapid.StartOfInput {
			start++
		}
		for i := start; i < len(s.buf); i++ {
			if s.buf[i] == rapid.StartOfInput {
				rec := append([]byte(nil), s.buf[start:i]...)
				recOff := s.off + start
				s.buf = s.buf[i+1:]
				s.off = recOff + len(rec) + 1
				return rec, recOff, nil
			}
		}
		if s.closed {
			// Final unterminated record, if any.
			if start < len(s.buf) {
				rec := append([]byte(nil), s.buf[start:]...)
				recOff := s.off + start
				s.buf = nil
				return rec, recOff, nil
			}
			if s.err == nil {
				s.err = io.EOF
			}
			return nil, 0, s.err
		}
		// Separators consumed so far can be discarded.
		s.off += start
		s.buf = s.buf[start:]
		if s.chunk == nil {
			s.chunk = make([]byte, 32<<10)
		}
		n, err := s.r.Read(s.chunk)
		s.buf = append(s.buf, s.chunk[:n]...)
		if err != nil {
			s.closed = true
			if err != io.EOF {
				s.err = err
			}
		}
	}
}
