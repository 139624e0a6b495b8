// Package gateway is the fault-tolerant front door for a fleet of
// rapidserve replicas: it routes match and stream requests by consistent
// hashing on the design name, mounts hot designs on R ring candidates
// (per-design replication factors from the fleet manifest) and spreads
// their load by power-of-two-choices on in-flight count, tracks each
// replica's health with active readiness probes and a passive per-replica
// circuit breaker, and retries admitted requests onto the next candidate
// when one fails — so killing a replica mid-load loses zero admitted
// requests, and with R > 1 the surviving candidates absorb the load
// without waiting for a breaker to recover.
//
// The routing table is a hot-swappable epoch: ApplyFleet (rapidgw's
// SIGHUP) diffs a new fleet manifest against the current membership and
// rebuilds the ring without dropping in-flight or admitted requests.
// Gateways are stateless — two gateways over the same manifest expose
// identical routing digests on GET /v1/replicas, so a fleet can run any
// number of them behind a TCP load balancer.
//
// Idempotent /v1/match responses are cached gateway-side, keyed on design
// hash + body form + body hash (bounded bytes, segmented LRU: one-off misses
// cannot flush entries that are being hit), so repeated probes and hot
// queries never touch a replica. A raw match (application/octet-stream,
// design in the query) is routed and keyed without parsing its body.
//
// Failover policy follows the serve layer's error vocabulary: transport
// errors, 503 draining, and 429 over-capacity move the request to another
// replica (with the Retry-After hint flooring the backoff); 429
// quota-exhausted is relayed to the client untouched, because tenant
// quotas are per-replica state and failing over would let a tenant evade
// them by spraying the fleet. Deterministic failures (400, 404, 500
// execution errors) are relayed as-is — they would fail identically
// everywhere.
//
// Command rapidgw is the CLI front end. See docs/OPERATIONS.md for
// deployment topology and tuning.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// CacheHeader is set by the gateway on /v1/match responses it answered
// ("hit") or populated ("miss") through the idempotent-response cache.
const CacheHeader = "X-Rapid-Cache"

// Config wires a Gateway. Fleet (or Replicas) is required; everything
// else has production-shaped defaults.
type Config struct {
	// Addr is the listen address. Default ":8764".
	Addr string
	// MetricsAddr optionally serves /metrics on a separate listener, shut
	// down last during drain.
	MetricsAddr string
	// Fleet declares the replica membership and per-design replication
	// factors. ApplyFleet swaps it at runtime.
	Fleet FleetManifest
	// Replicas are the rapidserve base URLs (e.g. "http://10.0.0.1:8765")
	// — shorthand for a Fleet with replication 1 everywhere. Ignored when
	// Fleet.Replicas is set.
	Replicas []string
	// Vnodes is the number of consistent-hash points per replica. Every
	// gateway over one fleet must agree on it (it is part of the routing
	// digest). Default 64.
	Vnodes int
	// CacheMaxBytes bounds the gateway-side cache of idempotent /v1/match
	// responses; 0 disables the cache.
	CacheMaxBytes int64
	// ProbeInterval paces the active /readyz probes. Default 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe. Default 1s.
	ProbeTimeout time.Duration
	// RetryAfter is the backpressure hint on gateway-originated 503s.
	// Default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// Policy paces failover retries. The zero value means one attempt per
	// replica plus one, with the serve layer's Retry-After hints flooring
	// the backoff.
	Policy resilience.Policy
	// Breaker configures each replica's circuit breaker.
	Breaker resilience.BreakerConfig
	// HTTPClient overrides the upstream client (tests inject one).
	HTTPClient *http.Client
	// Telemetry routes the gateway.* metric family into reg. nil disables.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8764"
	}
	if c.Vnodes <= 0 {
		c.Vnodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Policy.MaxAttempts <= 0 {
		c.Policy.MaxAttempts = len(c.Fleet.Replicas) + 1
		if c.Policy.MaxAttempts < 3 {
			c.Policy.MaxAttempts = 3
		}
	}
	return c
}

// Gateway routes requests across a replica fleet. Construct with New,
// then Start a listener or mount Handler yourself; ApplyFleet rebalances
// at runtime; Shutdown drains.
type Gateway struct {
	cfg   Config
	tel   *gatewayMetrics
	mux   *http.ServeMux
	httpc *http.Client
	cache *responseCache

	// fleetMu serializes ApplyFleet; table is the atomically-swapped
	// routing epoch every request resolves exactly once.
	fleetMu sync.Mutex
	table   atomic.Pointer[routeTable]

	draining   atomic.Bool
	baseCtx    context.Context
	cancelBase context.CancelFunc
	background sync.WaitGroup

	httpSrv    *http.Server
	ln         net.Listener
	serveDone  chan struct{}
	serveErr   error
	metricsSrv *telemetry.MetricsServer
}

// New builds a gateway over the configured replica fleet.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Fleet.Replicas) == 0 {
		cfg.Fleet.Replicas = cfg.Replicas
	}
	if len(cfg.Fleet.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: at least one replica is required")
	}
	g := &Gateway{cfg: cfg.withDefaults()}
	g.tel = newGatewayMetrics(g.cfg.Telemetry)
	g.cache = newResponseCache(g.cfg.CacheMaxBytes, g.tel)
	g.httpc = g.cfg.HTTPClient
	if g.httpc == nil {
		g.httpc = &http.Client{Timeout: 5 * time.Minute}
	}
	g.baseCtx, g.cancelBase = context.WithCancel(context.Background())

	t, added, err := g.buildTable(g.cfg.Fleet, nil)
	if err != nil {
		g.cancelBase()
		return nil, err
	}
	g.table.Store(t)
	g.tel.fleetSize.Set(int64(len(t.replicas)))

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /v1/replicas", g.handleReplicas)
	g.mux.HandleFunc("GET /v1/designs", g.handleDesigns)
	g.mux.HandleFunc("POST /v1/match", g.handleMatch)
	g.mux.HandleFunc("POST /v1/match/stream", g.handleMatchStream)
	if g.cfg.Telemetry != nil {
		h := telemetry.Handler(g.cfg.Telemetry)
		g.mux.Handle("/metrics", h)
		g.mux.Handle("/debug/vars", h)
	}
	g.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "rapidgw endpoints: /healthz /readyz /v1/replicas /v1/designs POST /v1/match POST /v1/match/stream")
	})

	for _, rep := range added {
		g.startProber(rep)
	}
	return g, nil
}

// Handler returns the gateway's HTTP handler, for mounting without Start.
func (g *Gateway) Handler() http.Handler { return g.mux }

// readHeaderTimeout bounds how long a client may take to send a request's
// headers: without it, a client that sends part of a request line and waits
// holds its connection and goroutine for as long as it likes. Tests lower it.
var readHeaderTimeout = 10 * time.Second

// Start binds the configured listeners and serves in the background.
func (g *Gateway) Start() error {
	ln, err := net.Listen("tcp", g.cfg.Addr)
	if err != nil {
		return err
	}
	g.ln = ln
	g.httpSrv = &http.Server{Handler: g.mux, ReadHeaderTimeout: readHeaderTimeout}
	g.serveDone = make(chan struct{})
	go func() {
		defer close(g.serveDone)
		if err := g.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			g.serveErr = err
		}
	}()
	if g.cfg.MetricsAddr != "" && g.cfg.Telemetry != nil {
		ms, err := telemetry.ListenAndServe(g.cfg.MetricsAddr, g.cfg.Telemetry)
		if err != nil {
			_ = g.httpSrv.Close()
			<-g.serveDone
			return err
		}
		g.metricsSrv = ms
	}
	return nil
}

// Addr returns the main listener's address (useful with ":0").
func (g *Gateway) Addr() string {
	if g.ln == nil {
		return ""
	}
	return g.ln.Addr().String()
}

// Shutdown drains the gateway: readiness flips to 503, in-flight requests
// (including streams mid-failover) complete, the probers stop, and the
// telemetry listener goes down last.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.draining.Store(true)
	var errs []error
	if g.httpSrv != nil {
		if err := g.httpSrv.Shutdown(ctx); err != nil {
			_ = g.httpSrv.Close()
			errs = append(errs, err)
		}
		<-g.serveDone
		if g.serveErr != nil {
			errs = append(errs, g.serveErr)
		}
	}
	g.cancelBase()
	g.background.Wait()
	if g.metricsSrv != nil {
		if err := g.metricsSrv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// --- routing ---

var errNoReplicas = errors.New("gateway: no replica available")

// route carries one request's routing decision: a table epoch, the
// design's candidate order (spread-reordered when replicated), and the
// failover cursor. All legs of one request route from the same epoch.
type route struct {
	g      *Gateway
	t      *routeTable
	cands  []int
	cursor int
	spread bool
	picked bool
}

// routeFor resolves a request's preference order for key. Designs with
// replication factor R > 1 have their first R candidates reordered by
// power-of-two-choices on in-flight count — two ready candidates are
// sampled and the less-loaded one leads — so replicated load spreads
// instead of hammering the ring owner; the remaining candidates keep ring
// order for deterministic failover.
func (g *Gateway) routeFor(key string) *route {
	t := g.table.Load()
	rt := &route{g: g, t: t, cands: t.ring.candidates(key)}
	if r := t.replicationFor(key); r > 1 {
		rt.spread = true
		rt.reorderSpread(r)
	}
	return rt
}

// reorderSpread applies power-of-two-choices over the ready members of
// the design's candidate set, rotating the chosen replica to the front of
// the preference order.
func (rt *route) reorderSpread(r int) {
	if r > len(rt.cands) {
		r = len(rt.cands)
	}
	ready := make([]int, 0, r)
	for i := 0; i < r; i++ {
		if rt.t.replicas[rt.cands[i]].ready.Load() {
			ready = append(ready, i)
		}
	}
	if len(ready) == 0 {
		return
	}
	pick := ready[0]
	if len(ready) > 1 {
		// Sample two distinct ready candidates; the less-loaded one leads.
		a := rand.Intn(len(ready))
		b := rand.Intn(len(ready) - 1)
		if b >= a {
			b++
		}
		pick = ready[a]
		if rt.t.replicas[rt.cands[ready[b]]].inflight.Load() < rt.t.replicas[rt.cands[ready[a]]].inflight.Load() {
			pick = ready[b]
		}
	}
	if pick != 0 {
		chosen := rt.cands[pick]
		copy(rt.cands[1:pick+1], rt.cands[:pick])
		rt.cands[0] = chosen
	}
}

// next returns the next candidate replica that is ready and whose breaker
// admits a request, advancing the cursor past it. The caller MUST call
// breaker.Record exactly once for the returned replica — Allow may have
// consumed a half-open probe slot.
func (rt *route) next() *replica {
	for i := 0; i < len(rt.cands); i++ {
		rep := rt.t.replicas[rt.cands[(rt.cursor+i)%len(rt.cands)]]
		if !rep.ready.Load() {
			continue
		}
		if !rep.breaker.Allow() {
			continue
		}
		rt.cursor = (rt.cursor + i + 1) % len(rt.cands)
		if rt.spread && !rt.picked {
			rt.picked = true
			rt.g.tel.spreadPicks.With(rep.id).Inc()
		}
		return rep
	}
	return nil
}

// bufferedResponse is a fully-read upstream response, safe to relay after
// the upstream connection is gone. It keeps only the header values relay
// copies, each the first of the upstream's values as an immutable
// one-element slice that every relay of a cached response assigns as is.
type bufferedResponse struct {
	status      int
	contentType []string
	retryAfter  []string
	designHash  []string
	idempotent  []string
	body        []byte
}

func newBufferedResponse(resp *http.Response, body []byte) *bufferedResponse {
	first := func(key string) []string {
		if v := resp.Header[key]; len(v) > 0 && v[0] != "" {
			return v[:1:1]
		}
		return nil
	}
	return &bufferedResponse{
		status:      resp.StatusCode,
		contentType: first("Content-Type"),
		retryAfter:  first("Retry-After"),
		designHash:  first(serve.DesignHashHeader),
		idempotent:  first(serve.IdempotentHeader),
		body:        body,
	}
}

// header returns a relayed header's value, "" when it has none.
func header(v []string) string {
	if v == nil {
		return ""
	}
	return v[0]
}

// X-Rapid-Cache values, shared by every response; net/http only reads them.
var (
	cacheHit  = []string{"hit"}
	cacheMiss = []string{"miss"}
)

func (g *Gateway) relay(w http.ResponseWriter, resp *bufferedResponse) {
	h := w.Header()
	for _, kv := range [...]struct {
		key   string
		value []string
	}{
		{"Content-Type", resp.contentType},
		{"Retry-After", resp.retryAfter},
		{serve.DesignHashHeader, resp.designHash},
		{serve.IdempotentHeader, resp.idempotent},
	} {
		if kv.value != nil {
			h[kv.key] = kv.value
		}
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// forward sends one buffered request leg to a replica and reads the whole
// response. Transport failures return an error, and so does a response
// longer than MaxBodyBytes: an *http.MaxBytesError, never a truncated body.
func (g *Gateway) forward(ctx context.Context, rep *replica, method, pathAndQuery string, hdr http.Header, body []byte) (*bufferedResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.base+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	for _, k := range [...]string{"Content-Type", serve.TenantHeader} {
		if v := hdr[k]; len(v) > 0 && v[0] != "" {
			req.Header[k] = v[:1:1] // the client's own value, which net/http only reads
		}
	}
	g.acquire(rep)
	defer g.release(rep)
	resp, err := g.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := serve.ReadBody(nil, resp.Body, resp.ContentLength, g.cfg.MaxBodyBytes, nil)
	if err != nil {
		return nil, err
	}
	return newBufferedResponse(resp, data), nil
}

// classifyResponse decides what a non-2xx upstream response means for the
// gateway: whether it counts as a replica fault for the breaker, whether
// the request should fail over to another replica, and the Retry-After
// floor for the backoff when it should.
func classifyResponse(resp *bufferedResponse) (breakerFailed, failover bool, hint time.Duration) {
	if resp.status < 400 {
		return false, false, 0
	}
	var eb serve.ErrorBody
	_ = json.Unmarshal(resp.body, &eb)
	hint = time.Duration(eb.RetryAfterMS) * time.Millisecond
	switch {
	case resp.status == http.StatusTooManyRequests:
		// Over-capacity is transient backpressure on one replica: try
		// another. Quota exhaustion is the tenant's own budget — per-replica
		// state — so failing over would evade it; relay instead.
		return false, eb.Code != serve.CodeQuotaExhausted, hint
	case resp.status == http.StatusServiceUnavailable:
		// Draining or dead behind a proxy: the replica is going away.
		return true, true, hint
	default:
		// 400/404/500: deterministic — identical on every replica.
		return false, false, 0
	}
}

// proxyWithFailover buffers one request and retries it across the key's
// candidate replicas until one yields a relayable response. Transport
// errors and failover-class statuses move to the next eligible replica
// under the retry policy, with upstream Retry-After hints flooring the
// backoff. When every attempt fails the client gets 503
// upstream_unavailable — a typed, retryable refusal, never silence. The
// response to relay is returned, and the caller relays it; after a refusal,
// already written, it is nil. A reply over MaxBodyBytes is answered 502
// internal: every replica would send the same one, so it is neither
// retried nor held against the replica.
func (g *Gateway) proxyWithFailover(w http.ResponseWriter, r *http.Request, path, key string, body []byte) *bufferedResponse {
	target := path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	rt := g.routeFor(key)
	attempts := 0
	var final *bufferedResponse
	var tooLarge *http.MaxBytesError
	err := resilience.Retry(r.Context(), g.cfg.Policy, func(int) error {
		rep := rt.next()
		if rep == nil {
			return resilience.RetryAfter(errNoReplicas, g.cfg.RetryAfter)
		}
		attempts++
		resp, err := g.forward(r.Context(), rep, r.Method, target, r.Header, body)
		if errors.As(err, &tooLarge) {
			rep.breaker.Record(false)
			g.tel.requests.With(rep.id, "relayed_error").Inc()
			return resilience.Permanent(err)
		}
		if err != nil {
			rep.breaker.Record(true)
			g.tel.requests.With(rep.id, "transport_error").Inc()
			return err
		}
		breakerFailed, failover, hint := classifyResponse(resp)
		rep.breaker.Record(breakerFailed)
		if failover {
			g.tel.requests.With(rep.id, "retried").Inc()
			if hint < g.cfg.RetryAfter {
				hint = g.cfg.RetryAfter
			}
			return resilience.RetryAfter(fmt.Errorf("gateway: replica %s returned %d", rep.id, resp.status), hint)
		}
		if resp.status >= 400 {
			g.tel.requests.With(rep.id, "relayed_error").Inc()
		} else {
			g.tel.requests.With(rep.id, "ok").Inc()
		}
		final = resp
		return nil
	})
	if attempts > 1 {
		g.tel.failovers.With(strings.TrimPrefix(path, "/v1/")).Add(uint64(attempts - 1))
	}
	switch {
	case tooLarge != nil:
		serve.WriteErrorBody(w, http.StatusBadGateway, serve.CodeInternal,
			fmt.Sprintf("gateway: replica reply exceeds %d bytes", tooLarge.Limit), 0)
		return nil
	case err != nil:
		serve.WriteErrorBody(w, http.StatusServiceUnavailable, serve.CodeUpstreamUnavailable,
			fmt.Sprintf("gateway: no replica could serve the request: %v", err), g.cfg.RetryAfter)
		return nil
	}
	return final
}

// --- handlers ---

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports ready while at least one replica is probed ready
// and the gateway is not draining.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if g.draining.Load() {
		serve.WriteErrorBody(w, http.StatusServiceUnavailable, serve.CodeDraining,
			"gateway draining", g.cfg.RetryAfter)
		return
	}
	for _, rep := range g.table.Load().replicas {
		if rep.ready.Load() {
			fmt.Fprintln(w, "ready")
			return
		}
	}
	serve.WriteErrorBody(w, http.StatusServiceUnavailable, serve.CodeUpstreamUnavailable,
		"no replica is ready", g.cfg.RetryAfter)
}

// ReplicaStatus is one replica's health as the gateway sees it, exposed
// on /v1/replicas for operators and the chaos harness.
type ReplicaStatus struct {
	Replica string `json:"replica"`
	URL     string `json:"url"`
	Ready   bool   `json:"ready"`
	Breaker string `json:"breaker"`
	// BreakerFailures is the consecutive-failure count of a closed
	// breaker — the early-warning signal before it trips.
	BreakerFailures int `json:"breaker_failures,omitempty"`
	// InFlight is the replica's current in-flight request count, the
	// power-of-two-choices spread signal.
	InFlight int64 `json:"inflight"`
	// LastError is the most recent probe failure, "" after a success.
	LastError string `json:"last_error,omitempty"`
}

// FleetStatus is the GET /v1/replicas payload: the routing-table digest
// (equal across every gateway sharing a fleet manifest — the
// multi-gateway HA invariant), the ring parameters, and each replica's
// health.
type FleetStatus struct {
	Digest             string          `json:"digest"`
	Vnodes             int             `json:"vnodes"`
	DefaultReplication int             `json:"default_replication"`
	Designs            map[string]int  `json:"designs,omitempty"`
	Replicas           []ReplicaStatus `json:"replicas"`
}

// Replicas returns the fleet's current per-replica status.
func (g *Gateway) Replicas() []ReplicaStatus {
	t := g.table.Load()
	out := make([]ReplicaStatus, 0, len(t.replicas))
	for _, rep := range t.replicas {
		state, failures := rep.breaker.Snapshot()
		out = append(out, ReplicaStatus{
			Replica:         rep.id,
			URL:             rep.base,
			Ready:           rep.ready.Load(),
			Breaker:         state.String(),
			BreakerFailures: failures,
			InFlight:        rep.inflight.Load(),
			LastError:       rep.probeError(),
		})
	}
	return out
}

// Fleet returns the full introspection payload of GET /v1/replicas.
func (g *Gateway) Fleet() FleetStatus {
	t := g.table.Load()
	designs := make(map[string]int, len(t.repl))
	for name, r := range t.repl {
		designs[name] = r
	}
	return FleetStatus{
		Digest:             t.digest,
		Vnodes:             t.vnodes,
		DefaultReplication: t.defaultRepl,
		Designs:            designs,
		Replicas:           g.Replicas(),
	}
}

func (g *Gateway) handleReplicas(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(g.Fleet())
}

// handleDesigns relays the mounted-design listing from any healthy
// replica (the fleet serves a uniform manifest).
func (g *Gateway) handleDesigns(w http.ResponseWriter, r *http.Request) {
	if resp := g.proxyWithFailover(w, r, "/v1/designs", "", nil); resp != nil {
		g.relay(w, resp)
	}
}

func (g *Gateway) handleMatch(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		serve.WriteErrorBody(w, http.StatusServiceUnavailable, serve.CodeDraining,
			"gateway draining", g.cfg.RetryAfter)
		return
	}
	// The body is read into pooled scratch and hashed there: a hit never
	// copies it, and a miss copies it out before forwarding, because the
	// upstream transport may still read a request body after it answers.
	scratch := serve.GetScratch()
	defer serve.PutScratch(scratch)
	body, err := serve.ReadBody(w, r.Body, r.ContentLength, g.cfg.MaxBodyBytes, *scratch)
	*scratch = body
	if err != nil {
		serve.WriteErrorBody(w, http.StatusBadRequest, serve.CodeBadRequest,
			fmt.Sprintf("gateway: reading request body: %v", err), 0)
		return
	}
	// The design name is the routing key. A raw body names it in the query
	// and is never parsed; a JSON body names it in its design field, and a
	// malformed one still routes (to the ""-keyed owner) so the replica
	// reports the parse error.
	raw := serve.RawBody(r)
	var design string
	if raw {
		design = serve.QueryDesign(r.URL.RawQuery)
	} else {
		design = jsonDesign(body)
	}

	// Identical idempotent matches are answered from the gateway cache —
	// no replica round-trip, no queue slot, no quota draw.
	var inHash string
	if g.cache != nil {
		inHash = inputHash(raw, body)
		if resp := g.cache.lookup(design, inHash); resp != nil {
			g.tel.cacheHits.Inc()
			w.Header()[CacheHeader] = cacheHit
			g.relay(w, resp)
			return
		}
		g.tel.cacheMisses.Inc()
		w.Header()[CacheHeader] = cacheMiss
	}
	resp := g.proxyWithFailover(w, r, "/v1/match", design, bytes.Clone(body))
	if resp == nil {
		return
	}
	// Stored before it is relayed, so a client that sends the same match
	// once it has this reply finds it cached.
	if g.cache != nil && resp.status == http.StatusOK && header(resp.idempotent) == "true" {
		g.cache.store(design, header(resp.designHash), inHash, resp)
	}
	g.relay(w, resp)
}

// jsonDesign is a JSON match body's design field, "" when it has none or
// is malformed.
func jsonDesign(body []byte) string {
	var req struct {
		Design string `json:"design"`
	}
	_ = json.Unmarshal(body, &req)
	return req.Design
}
