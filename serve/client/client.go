// Package client is the Go client for the rapidserve pattern-match
// service. It retries over-capacity (429) and draining (503) responses
// with the bounded jittered backoff of internal/resilience, honoring the
// server's Retry-After hint as a floor on the backoff — so server-side
// backpressure paces the client instead of triggering a retry storm.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	rapid "repro"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// Client talks to one rapidserve base URL. It is safe for concurrent use.
type Client struct {
	base   string
	httpc  *http.Client
	policy resilience.Policy
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.httpc = h }
}

// WithRetryPolicy substitutes the retry policy applied to retryable
// failures (429, 503, transport errors). The zero policy means 3 attempts
// with 1ms..100ms exponential backoff; Retry-After hints still floor the
// delays.
func WithRetryPolicy(p resilience.Policy) Option {
	return func(c *Client) { c.policy = p }
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8765").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:  strings.TrimSuffix(baseURL, "/"),
		httpc: &http.Client{Timeout: 5 * time.Minute},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// StatusError is a non-2xx response from the server.
type StatusError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the server's typed error code (e.g. serve.CodeOverCapacity)
	// from the structured error body, "" for pre-structured responses.
	Code string
	// Message is the server's error string.
	Message string
	// RetryAfter is the backoff hint: retry_after_ms from the structured
	// body when present (millisecond resolution), else the Retry-After
	// header (whole seconds).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("serve client: %d %s (%s): %s",
			e.Status, http.StatusText(e.Status), e.Code, e.Message)
	}
	return fmt.Sprintf("serve client: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// IsRetryable reports whether the error is worth retrying. A typed code
// decides when present (so a quota_exhausted 429 and an over_capacity 429
// both retry, but against the same replica — see serve.RetryableCode);
// otherwise the status decides: 429 asked for backoff, 503 is
// draining/unavailable.
func (e *StatusError) IsRetryable() bool {
	if e.Code != "" {
		return serve.RetryableCode(e.Code)
	}
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// MatchResult is the single-shot match response: the reply's design, hash,
// backend and reports, decoded by serve's reply codec. A report's site is
// dropped on the way in; DesignInfo.Sites resolves its code.
type MatchResult struct {
	Design  string
	Hash    string
	Backend string
	Reports []rapid.Report
}

// Match executes input against the named design (empty when the server
// mounts exactly one), retrying over-capacity and draining responses per
// the client's policy with the server's Retry-After hint as a backoff
// floor. The input travels as the raw request body, the design as the
// design query parameter.
func (c *Client) Match(ctx context.Context, design string, input []byte) (*MatchResult, error) {
	path := "/v1/match"
	if design != "" {
		path += "?design=" + url.QueryEscape(design)
	}
	var reply serve.MatchReply
	err := c.postRetry(ctx, path, serve.RawContentType, input, func(body []byte) error {
		return serve.DecodeMatchReply(body, &reply)
	})
	if err != nil {
		return nil, err
	}
	return &MatchResult{Design: reply.Design, Hash: reply.Hash, Backend: reply.Backend, Reports: reply.Reports}, nil
}

// MatchText is Match over literal text.
func (c *Client) MatchText(ctx context.Context, design, text string) (*MatchResult, error) {
	return c.Match(ctx, design, []byte(text))
}

// RecordResult is one record's outcome from the streaming endpoint.
type RecordResult struct {
	// Index is the record's position in the stream.
	Index int
	// Offset is the stream offset of the record's first symbol.
	Offset int
	// Reports carries the record's reports in stream coordinates.
	Reports []rapid.Report
	// Err is the record's per-record failure (e.g. rejected under
	// backpressure), nil on success. A server that sends typed error
	// lines yields a *RecordError here.
	Err error
}

// RecordError is one record's typed failure from the streaming endpoint.
type RecordError struct {
	// Code is the server's error code (e.g. serve.CodeOverCapacity),
	// "" when the server sent only a plain error string.
	Code string
	// Message is the server's error string.
	Message string
	// RetryAfter is the record's retry_after_ms hint, when present.
	RetryAfter time.Duration
}

func (e *RecordError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("serve client: record refused (%s): %s", e.Code, e.Message)
	}
	return e.Message
}

// IsRetryable reports whether resubmitting just this record may succeed.
func (e *RecordError) IsRetryable() bool { return serve.RetryableCode(e.Code) }

// MatchStream posts a separator-framed record stream to the chunked
// streaming endpoint and returns one result per record. Per-record
// failures (admission rejections under load) surface in RecordResult.Err
// rather than failing the whole stream; the request itself is not
// retried, since the server may have processed a prefix.
//
// The stream's framing tells the client how many records it sent, so a
// response that ends early — the connection dropping mid-body, a torn
// final line, or a cleanly closed but short response — is an error, never
// a silently shortened result slice.
func (c *Client) MatchStream(ctx context.Context, design string, stream []byte) ([]RecordResult, error) {
	target := c.base + "/v1/match/stream"
	if design != "" {
		target += "?design=" + url.QueryEscape(design)
	}
	records, _ := rapid.SplitRecords(stream)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", serve.RawContentType)
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var results []RecordResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20) // starts at bufio's 4 KiB and grows to the cap
	for sc.Scan() {
		// Each line decodes into fresh Reports, which the result keeps.
		var line serve.StreamResult
		if err := serve.DecodeStreamResult(sc.Bytes(), &line, nil); err != nil {
			return results, fmt.Errorf("serve client: torn stream line after %d of %d records: %w",
				len(results), len(records), err)
		}
		if line.Index != len(results) {
			return results, fmt.Errorf("serve client: stream out of order: got record %d, want %d",
				line.Index, len(results))
		}
		rr := RecordResult{Index: line.Index, Offset: line.Offset, Reports: line.Reports}
		if line.Error != "" {
			rr.Err = &RecordError{
				Code:       line.Code,
				Message:    line.Error,
				RetryAfter: time.Duration(line.RetryAfterMS) * time.Millisecond,
			}
		}
		results = append(results, rr)
	}
	if err := sc.Err(); err != nil {
		return results, fmt.Errorf("serve client: stream interrupted after %d of %d records: %w",
			len(results), len(records), err)
	}
	if len(results) != len(records) {
		return results, fmt.Errorf("serve client: stream truncated: %d of %d records answered",
			len(results), len(records))
	}
	return results, nil
}

// MatchRecords frames records per the paper's flattened-array convention
// and streams them.
func (c *Client) MatchRecords(ctx context.Context, design string, records ...[]byte) ([]RecordResult, error) {
	return c.MatchStream(ctx, design, rapid.FrameRecords(records...))
}

// Ready polls the readiness endpoint once.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return nil
}

// DesignInfo mirrors the server's mounted-design description.
type DesignInfo struct {
	Name      string `json:"name"`
	Hash      string `json:"hash"`
	Backend   string `json:"backend"`
	STEs      int    `json:"stes"`
	Counters  int    `json:"counters"`
	Gates     int    `json:"gates"`
	Reporting int    `json:"reporting"`
	Tiers     string `json:"tiers"`
	// Sites maps each report code to its source site: a match result's
	// reports carry only (offset, code), and this resolves the code.
	Sites map[int]string `json:"sites,omitempty"`
}

// Designs lists the server's mounted designs.
func (c *Client) Designs(ctx context.Context) ([]DesignInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/designs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var out []DesignInfo
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// postRetry POSTs body, hands a 200 response's body to decode, and retries
// retryable failures under the client's policy. A 429/503 Retry-After
// hint floors the backoff delay via resilience.RetryAfter. The body decode
// sees is pooled scratch, valid only during the call.
func (c *Client) postRetry(ctx context.Context, path, contentType string, body []byte, decode func([]byte) error) error {
	return resilience.Retry(ctx, c.policy, func(int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return resilience.Permanent(err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := c.httpc.Do(req)
		if err != nil {
			return err // transport errors are retryable
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			serr := statusError(resp)
			var se *StatusError
			if errors.As(serr, &se) && se.IsRetryable() {
				return resilience.RetryAfter(serr, se.RetryAfter)
			}
			return resilience.Permanent(serr)
		}
		scratch := serve.GetScratch()
		defer serve.PutScratch(scratch)
		data, err := serve.ReadBody(nil, resp.Body, resp.ContentLength, math.MaxInt64, *scratch)
		*scratch = data
		if err == nil {
			err = decode(data)
		}
		if err != nil {
			return resilience.Permanent(err)
		}
		return nil
	})
}

// statusError builds a *StatusError from a non-2xx response. It parses
// the structured {"code","message","retry_after_ms"} body first, falls
// back to the legacy {"error"} shape and then raw text, and takes the
// backoff hint from retry_after_ms when present (finer-grained), else the
// Retry-After header.
func statusError(resp *http.Response) error {
	se := &StatusError{Status: resp.StatusCode}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var body struct {
		serve.ErrorBody
		Error string `json:"error"`
	}
	switch {
	case json.Unmarshal(data, &body) == nil && body.Code != "":
		se.Code = body.Code
		se.Message = body.Message
		se.RetryAfter = time.Duration(body.RetryAfterMS) * time.Millisecond
	case body.Error != "":
		se.Message = body.Error
	default:
		se.Message = strings.TrimSpace(string(data))
	}
	if se.RetryAfter == 0 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				se.RetryAfter = time.Duration(secs) * time.Second
			}
		}
	}
	return se
}
