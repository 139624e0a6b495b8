package gateway

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	rapid "repro"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// handleMatchStream is the failover-capable streaming endpoint. The
// gateway reads the whole framed stream up front, splits it into records,
// and forwards the unacknowledged suffix to the design's owner replica —
// relaying each NDJSON result line as it arrives, rewritten into the
// original stream's indexes and offsets. When a replica dies mid-stream
// (transport failure, draining, or over-capacity refusals), the suffix
// starting at the first unacknowledged record resumes on the next healthy
// replica; the client sees one uninterrupted, ordered result stream.
// Records that exhaust every replica get typed upstream_unavailable error
// lines — a retryable refusal, never a silently shortened stream.
func (g *Gateway) handleMatchStream(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		serve.WriteErrorBody(w, http.StatusServiceUnavailable, serve.CodeDraining,
			"gateway draining", g.cfg.RetryAfter)
		return
	}
	design := serve.QueryDesign(r.URL.RawQuery)
	raw, err := serve.ReadBody(w, r.Body, r.ContentLength, g.cfg.MaxBodyBytes, nil)
	if err != nil {
		serve.WriteErrorBody(w, http.StatusBadRequest, serve.CodeBadRequest,
			fmt.Sprintf("gateway: reading request body: %v", err), 0)
		return
	}
	records, offsets := rapid.SplitRecords(raw)

	st := &streamState{
		gw:      g,
		w:       w,
		design:  design,
		tenant:  r.Header.Get(serve.TenantHeader),
		records: records,
		offsets: offsets,
	}
	st.flusher, _ = w.(http.Flusher)

	w.Header().Set("Content-Type", "application/x-ndjson")
	if len(records) == 0 {
		w.WriteHeader(http.StatusOK)
		return
	}

	rt := g.routeFor(design)
	legs := 0
	err = resilience.Retry(r.Context(), g.cfg.Policy, func(int) error {
		rep := rt.next()
		if rep == nil {
			return resilience.RetryAfter(errNoReplicas, g.cfg.RetryAfter)
		}
		legs++
		return st.leg(r, rep)
	})
	if legs > 1 {
		g.tel.failovers.With("stream").Add(uint64(legs - 1))
	}
	if err == nil || st.relayed {
		return
	}
	// Every replica leg failed: the remaining records get typed,
	// retryable error lines so the client can account for and resend
	// exactly the suffix that was never executed.
	for i := st.acked; i < len(records); i++ {
		g.tel.streamRecords.With("unavailable").Inc()
		st.out = serve.AppendStreamResult(st.out[:0], &serve.StreamResult{
			Index:        i,
			Offset:       offsets[i],
			Error:        fmt.Sprintf("gateway: no replica could serve the record: %v", err),
			Code:         serve.CodeUpstreamUnavailable,
			RetryAfterMS: g.cfg.RetryAfter.Milliseconds(),
		}, serve.Sites{})
		if _, werr := w.Write(st.out); werr != nil {
			return
		}
	}
	if st.flusher != nil {
		st.flusher.Flush()
	}
}

// streamState carries one client stream across replica legs.
type streamState struct {
	gw      *Gateway
	w       http.ResponseWriter
	design  string
	tenant  string
	records [][]byte
	offsets []int
	flusher http.Flusher
	lineScratch

	// acked counts records whose result line was relayed to the client;
	// a failover resumes at records[acked].
	acked int
	// relayed is set when a non-200 upstream response was relayed verbatim
	// before any line was written — the stream is answered, stop retrying.
	relayed bool
}

// leg forwards the unacknowledged suffix to one replica and relays its
// result lines. It returns nil when the stream is complete (or answered),
// and a retryable error when the leg died partway — with acked recording
// exactly how far the client-visible stream got.
func (st *streamState) leg(r *http.Request, rep *replica) error {
	g := st.gw
	start := st.acked
	suffix := rapid.FrameRecords(st.records[start:]...)
	target := rep.base + "/v1/match/stream"
	if st.design != "" {
		target += "?design=" + url.QueryEscape(st.design)
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, target, bytes.NewReader(suffix))
	if err != nil {
		rep.breaker.Record(false)
		return resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", serve.RawContentType)
	if st.tenant != "" {
		req.Header.Set(serve.TenantHeader, st.tenant)
	}
	g.acquire(rep)
	defer g.release(rep)
	resp, err := g.httpc.Do(req)
	if err != nil {
		rep.breaker.Record(true)
		g.tel.requests.With(rep.id, "transport_error").Inc()
		return err
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		buffered := newBufferedResponse(resp, data)
		breakerFailed, failover, hint := classifyResponse(buffered)
		rep.breaker.Record(breakerFailed)
		if failover {
			g.tel.requests.With(rep.id, "retried").Inc()
			if hint < g.cfg.RetryAfter {
				hint = g.cfg.RetryAfter
			}
			return resilience.RetryAfter(fmt.Errorf("gateway: replica %s returned %d", rep.id, resp.StatusCode), hint)
		}
		// Deterministic refusal (unknown design, bad request): relay it
		// verbatim — but only while nothing has been written yet.
		g.tel.requests.With(rep.id, "relayed_error").Inc()
		if st.acked == 0 {
			st.relayed = true
			g.relay(st.w, buffered)
		}
		return nil
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20) // starts at bufio's 4 KiB and grows to the cap
	for sc.Scan() {
		line, err := st.decode(sc.Bytes())
		if err != nil {
			// A torn line means the replica died mid-write: resume.
			rep.breaker.Record(true)
			g.tel.requests.With(rep.id, "transport_error").Inc()
			return fmt.Errorf("gateway: torn stream line from %s: %w", rep.id, err)
		}
		global := start + line.Index
		if line.Index < 0 || global >= len(st.records) {
			rep.breaker.Record(true)
			return fmt.Errorf("gateway: replica %s returned record %d beyond the stream", rep.id, global)
		}
		if line.Error != "" && serve.RetryableCode(line.Code) && line.Code != serve.CodeQuotaExhausted {
			// The replica refused this record transiently (draining or over
			// capacity). Don't relay the refusal — resume the suffix, this
			// record included, on the next replica. Quota refusals are NOT
			// resumed: the tenant's budget is per-replica state, and
			// spraying the record across the fleet would evade it.
			rep.breaker.Record(line.Code == serve.CodeDraining)
			g.tel.requests.With(rep.id, "retried").Inc()
			hint := time.Duration(line.RetryAfterMS) * time.Millisecond
			if hint < g.cfg.RetryAfter {
				hint = g.cfg.RetryAfter
			}
			return resilience.RetryAfter(
				fmt.Errorf("gateway: replica %s refused record %d: %s", rep.id, global, line.Error), hint)
		}
		if line.Error != "" {
			g.tel.streamRecords.With("error").Inc()
		} else {
			g.tel.streamRecords.With("ok").Inc()
		}
		if _, werr := st.w.Write(st.rebase(global, st.offsets[global])); werr != nil {
			// The client went away; nothing left to protect.
			rep.breaker.Record(false)
			return nil
		}
		if st.flusher != nil {
			st.flusher.Flush()
		}
		st.acked = global + 1
	}
	if err := sc.Err(); err != nil {
		rep.breaker.Record(true)
		g.tel.requests.With(rep.id, "transport_error").Inc()
		return fmt.Errorf("gateway: stream from %s died: %w", rep.id, err)
	}
	if st.acked < len(st.records) {
		// The replica closed the stream early without an error — treat as
		// a failure and resume the missing suffix elsewhere.
		rep.breaker.Record(true)
		g.tel.requests.With(rep.id, "transport_error").Inc()
		return fmt.Errorf("gateway: replica %s ended the stream at record %d of %d", rep.id, st.acked, len(st.records))
	}
	rep.breaker.Record(false)
	g.tel.requests.With(rep.id, "ok").Inc()
	return nil
}

// lineScratch is one stream's reusable line state: the upstream line
// decoded with each report's site left as its raw JSON string, and the
// rewritten line's bytes.
type lineScratch struct {
	line    serve.StreamResult
	reports []rapid.Report // line.Reports' backing array, kept across lines without reports
	sites   [][]byte
	out     []byte
}

// decode reads one upstream line into the scratch. The line is valid until
// the next decode.
func (ls *lineScratch) decode(data []byte) (*serve.StreamResult, error) {
	ls.line.Reports = ls.reports
	err := serve.DecodeStreamResult(data, &ls.line, &ls.sites)
	if cap(ls.line.Reports) > cap(ls.reports) {
		ls.reports = ls.line.Reports[:0]
	}
	return &ls.line, err
}

// rebase moves the decoded line to the client stream's index and offset,
// shifting its reports' offsets alike, and returns the line's bytes, each
// site re-emitted as it arrived. They are valid until the next rebase.
func (ls *lineScratch) rebase(index, offset int) []byte {
	delta := offset - ls.line.Offset
	ls.line.Index, ls.line.Offset = index, offset
	for i := range ls.line.Reports {
		ls.line.Reports[i].Offset += delta
	}
	ls.out = serve.AppendStreamResult(ls.out[:0], &ls.line, serve.Sites{ByIndex: ls.sites})
	return ls.out
}
