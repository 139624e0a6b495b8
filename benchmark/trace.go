package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
)

// Tracing is done from the harness's own files, around the calls into each
// layer: caller op → caller request → caller RoundTripper → middleware around
// gateway.Handler() → the gateway's injected RoundTripper → middleware around
// serve.Handler(). A span's parent travels by context value inside a process
// layer and by the X-Bench-Span header across a connection. A nil *tracer
// records nothing and adds no allocation, which is the untraced run.

const spanHeader = "X-Bench-Span"

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"` // id of the root span: shared by all spans of one op
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // design, or hit / miss / stream / match
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanRef is what a child needs to know of its parent.
type spanRef struct{ id, op uint64 }

func (s span) ref() spanRef { return spanRef{s.ID, s.Op} }

func (r spanRef) header() string {
	return strconv.FormatUint(r.op, 10) + "." + strconv.FormatUint(r.id, 10)
}

func parseSpanHeader(v string) (spanRef, bool) {
	op, id, ok := strings.Cut(v, ".")
	if !ok {
		return spanRef{}, false
	}
	o, err1 := strconv.ParseUint(op, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	return spanRef{i, o}, err1 == nil && err2 == nil
}

type spanKey struct{}

// tracer keeps finished spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) begin(name, kind string, parent spanRef) span {
	if t == nil {
		return span{}
	}
	id := t.next.Add(1)
	op := parent.op
	if op == 0 {
		op = id
	}
	return span{ID: id, Parent: parent.id, Op: op, Name: name, Kind: kind, Start: int64(time.Since(t.epoch))}
}

func (t *tracer) end(s span) {
	if t == nil || s.ID == 0 {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark returns the number of spans finished so far, for since.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans that finished after mark was taken. A
// handler's span ends after its reply has reached the caller, so the spans of
// a window are complete only once the servers have drained.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// context returns the context a traced call carries its parent span in.
func (t *tracer) context(s span) context.Context {
	if t == nil {
		return context.Background()
	}
	return context.WithValue(context.Background(), spanKey{}, s.ref())
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestKind classifies a match-API request for its spans.
func requestKind(path, cache string) string {
	switch {
	case strings.HasSuffix(path, "/stream"):
		return "stream"
	case cache != "":
		return cache
	default:
		return "match"
	}
}

// middleware wraps a layer's handler in a span whose parent is the span the
// request header names. Requests without the header (the gateway's readiness
// probes) pass through unrecorded.
func (t *tracer) middleware(name string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		s := t.begin(name, "", parent)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.ref())))
		s.Kind = requestKind(r.URL.Path, w.Header().Get(gateway.CacheHeader))
		t.end(s)
	})
}

// reply is what a caller checks of its last response beyond the decoded
// body. One caller owns one transport, so no lock is needed.
type reply struct {
	cache   string // X-Rapid-Cache of the last response
	refused int    // responses other than 200 so far
}

// transport is the harness's RoundTripper. For a caller it notes the reply
// headers the serve client does not surface; traced, it also records the
// round trip as a span and names that span to the next layer. The span ends
// when RoundTrip returns, so reading and decoding the reply is the caller's
// own time; a streamed reply arrives after that, so its span ends when the
// body is closed.
type transport struct {
	base http.RoundTripper
	tr   *tracer
	name string
	seen *reply // nil on the gateway's upstream transport, which goroutines share
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var s span
	if parent, ok := req.Context().Value(spanKey{}).(spanRef); ok && t.tr != nil {
		s = t.tr.begin(t.name, requestKind(req.URL.Path, ""), parent)
		req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
		req.Header.Set(spanHeader, s.ref().header())
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(s)
		return nil, err
	}
	if s.Kind == "stream" {
		resp.Body = &spanBody{resp.Body, t.tr, s}
	} else {
		t.tr.end(s)
	}
	if t.seen != nil {
		t.seen.cache = resp.Header.Get(gateway.CacheHeader)
		if resp.StatusCode != http.StatusOK {
			t.seen.refused++
		}
	}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	tr *tracer
	s  span
}

func (b *spanBody) Close() error {
	b.tr.end(b.s)
	b.s = span{}
	return b.ReadCloser.Close()
}
