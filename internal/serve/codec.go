package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	rapid "repro"
)

// The reply codec: the one encoder and the one decoder of the two hot wire
// shapes, a /v1/match reply (MatchReply) and a /v1/match/stream line
// (StreamResult). serve encodes both, the gateway decodes and re-encodes
// stream lines, and serve/client decodes both, all without reflection.
//
// The encoder writes the bytes encoding/json's Encoder writes for the
// same value (key order, escaping, trailing newline), so a caller on any
// JSON library reads what it always read. The decoder accepts any key
// order, whitespace and unknown keys, matches keys in exactly the spelling
// written here, and never materialises a report's site: a caller that
// wants the sites gets each one as the raw bytes of its JSON string.

// MatchReply is the body of a /v1/match reply. On the wire every report
// also carries its code's site (DesignInfo.Sites), which the decoder drops.
type MatchReply struct {
	Design  string         `json:"design"`
	Hash    string         `json:"hash"`
	Backend string         `json:"backend"`
	Count   int            `json:"count"`
	Reports []rapid.Report `json:"reports"`
}

// StreamResult is one NDJSON line of the streaming endpoint, and of the
// gateway's, which relays it rewritten: the reports of one record, with
// offsets rebased to stream coordinates. A failed record carries the
// structured error fields instead of reports — the same code vocabulary
// as ErrorBody, so clients can type per-record failures and retry the
// retryable ones. Reports carry their sites on the wire as MatchReply's do.
type StreamResult struct {
	Index        int            `json:"index"`
	Offset       int            `json:"offset"`
	Count        int            `json:"count"`
	Reports      []rapid.Report `json:"reports"`
	Error        string         `json:"error,omitempty"`
	Code         string         `json:"code,omitempty"`
	RetryAfterMS int64          `json:"retry_after_ms,omitempty"`
}

// Sites supplies the encoder with each report's site as a quoted JSON
// string (quoteString): ByCode maps a report's code to it (a design's
// table, SiteTable), ByIndex holds report i's at index i (the sites
// DecodeStreamResult passed through). A missing or empty entry, like an
// empty site, is left off the wire.
type Sites struct {
	ByCode  map[int][]byte
	ByIndex [][]byte
}

// SiteTable quotes a design's code → site table once for Sites.ByCode.
func SiteTable(sites map[int]string) map[int][]byte {
	out := make(map[int][]byte, len(sites))
	for code, site := range sites {
		if site != "" {
			out[code] = quoteString(nil, site)
		}
	}
	return out
}

func (s Sites) site(i, code int) []byte {
	if s.ByIndex != nil {
		if i < len(s.ByIndex) {
			return s.ByIndex[i]
		}
		return nil
	}
	return s.ByCode[code]
}

// AppendMatchReply appends r's JSON line to b, each report's site taken
// from sites.
func AppendMatchReply(b []byte, r *MatchReply, sites Sites) []byte {
	b = append(b, `{"design":`...)
	b = quoteString(b, r.Design)
	b = append(b, `,"hash":`...)
	b = quoteString(b, r.Hash)
	b = append(b, `,"backend":`...)
	b = quoteString(b, r.Backend)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	b = appendReports(b, r.Reports, sites)
	return append(b, "}\n"...)
}

// AppendStreamResult appends r's NDJSON line to b, sites as for
// AppendMatchReply.
func AppendStreamResult(b []byte, r *StreamResult, sites Sites) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(r.Index), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(r.Offset), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	b = appendReports(b, r.Reports, sites)
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = quoteString(b, r.Error)
	}
	if r.Code != "" {
		b = append(b, `,"code":`...)
		b = quoteString(b, r.Code)
	}
	if r.RetryAfterMS != 0 {
		b = append(b, `,"retry_after_ms":`...)
		b = strconv.AppendInt(b, r.RetryAfterMS, 10)
	}
	return append(b, "}\n"...)
}

func appendReports(b []byte, reports []rapid.Report, sites Sites) []byte {
	if reports == nil {
		return append(b, `,"reports":null`...)
	}
	b = append(b, `,"reports":[`...)
	for i, r := range reports {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"offset":`...)
		b = strconv.AppendInt(b, int64(r.Offset), 10)
		b = append(b, `,"code":`...)
		b = strconv.AppendInt(b, int64(r.Code), 10)
		if site := sites.site(i, r.Code); len(site) > 0 {
			b = append(b, `,"site":`...)
			b = append(b, site...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// quoteString appends s as a JSON string, escaped as encoding/json's
// Encoder escapes it by default: '"' and '\\', control characters, '<', '>'
// and '&', U+2028 and U+2029, and each byte of invalid UTF-8 as \ufffd.
func quoteString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			if e := strings.IndexByte("\"\\\b\f\n\r\t", c); e >= 0 {
				b = append(b, '\\', "\"\\bfnrt"[e])
			} else {
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// scratchPool holds byte buffers for building one reply or reading one
// body. PutScratch drops buffers grown past scratchKeep, so one large reply
// does not stay pinned in the pool.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

const scratchKeep = 64 << 10

// GetScratch returns an empty pooled buffer; PutScratch returns it.
func GetScratch() *[]byte { return scratchPool.Get().(*[]byte) }

// PutScratch returns buf to the pool, emptied.
func PutScratch(buf *[]byte) {
	if cap(*buf) > scratchKeep {
		return
	}
	*buf = (*buf)[:0]
	scratchPool.Put(buf)
}

// The keys each decoded object knows, in the spelling serve writes. A known
// key that appears twice in one object is an error.
var (
	replyKeys  = []string{"design", "hash", "backend", "count", "reports"}
	lineKeys   = []string{"index", "offset", "count", "reports", "error", "code", "retry_after_ms"}
	reportKeys = []string{"offset", "code", "site"}
)

// DecodeMatchReply decodes one /v1/match reply from data into r,
// overwriting every field. r.Reports' backing array is reused; a reply
// that carries "count" before "reports" sizes a fresh one exactly.
// Trailing bytes other than whitespace are an error.
func DecodeMatchReply(data []byte, r *MatchReply) error {
	reports := r.Reports[:0]
	*r = MatchReply{}
	d := decoder{data: data}
	err := d.object(replyKeys, func(key []byte) (err error) {
		switch string(key) {
		case "design":
			r.Design, err = d.stringValue()
		case "hash":
			r.Hash, err = d.stringValue()
		case "backend":
			r.Backend, err = d.stringValue()
		case "count":
			r.Count, err = d.intValue()
		case "reports":
			r.Reports, err = d.reports(reports, r.Count, nil)
		default:
			err = d.skip(0)
		}
		return err
	})
	return d.end(err)
}

// DecodeStreamResult decodes one stream line from data into r, overwriting
// every field; r.Reports' backing array is reused as in DecodeMatchReply.
// When sites is not nil, (*sites)[i] is set to report i's site as the raw
// bytes of its JSON string, a view into data, nil when it has none.
func DecodeStreamResult(data []byte, r *StreamResult, sites *[][]byte) error {
	reports := r.Reports[:0]
	*r = StreamResult{}
	if sites != nil {
		*sites = (*sites)[:0]
	}
	d := decoder{data: data}
	err := d.object(lineKeys, func(key []byte) (err error) {
		switch string(key) {
		case "index":
			r.Index, err = d.intValue()
		case "offset":
			r.Offset, err = d.intValue()
		case "count":
			r.Count, err = d.intValue()
		case "reports":
			r.Reports, err = d.reports(reports, r.Count, sites)
		case "error":
			r.Error, err = d.stringValue()
		case "code":
			r.Code, err = d.stringValue()
		case "retry_after_ms":
			var ms int
			ms, err = d.intValue()
			r.RetryAfterMS = int64(ms)
		default:
			err = d.skip(0)
		}
		return err
	})
	return d.end(err)
}

// decoder is a cursor over one JSON value. Every method validates what it
// consumes as encoding/json's scanner would, and fails rather than guess.
type decoder struct {
	data []byte
	pos  int
}

// maxDepth bounds the nesting of values the decoder skips.
const maxDepth = 512

func (d *decoder) fail(what string) error {
	return fmt.Errorf("serve: malformed reply: %s at byte %d", what, d.pos)
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) expect(c byte) error {
	if d.peek() != c {
		return d.fail("expected " + strconv.QuoteRune(rune(c)))
	}
	d.pos++
	return nil
}

// end finishes a decode: only whitespace may follow the value.
func (d *decoder) end(err error) error {
	if d.ws(); err == nil && d.pos < len(d.data) {
		err = d.fail("trailing data")
	}
	return err
}

// literal consumes word (true, false or null) if it is next.
func (d *decoder) literal(word string) bool {
	if d.peek() != word[0] {
		return false
	}
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return false
	}
	d.pos += len(word)
	return true
}

// object walks an object's members, calling member with each key; member
// consumes the value. One of known twice is an error.
func (d *decoder) object(known []string, member func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	var seen uint
	for {
		start, end, escaped, err := d.str()
		if err != nil {
			return err
		}
		key := d.data[start:end]
		if escaped {
			key = unquote(key)
		}
		for i, k := range known {
			if string(key) == k {
				if seen&(1<<i) != 0 {
					return d.fail("duplicate key")
				}
				seen |= 1 << i
			}
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or '}'")
		}
	}
}

// str consumes a JSON string and returns the bounds of its contents,
// whether it holds an escape or bytes that unquote must rewrite.
func (d *decoder) str() (start, end int, rewrite bool, err error) {
	if d.peek() != '"' {
		return 0, 0, false, d.fail("expected string")
	}
	d.pos++
	start = d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return start, d.pos - 1, rewrite, nil
		case c == '\\':
			rewrite = true
			if d.pos+1 >= len(d.data) {
				return 0, 0, false, d.fail("unterminated escape")
			}
			switch d.data[d.pos+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos += 2
			case 'u':
				if d.pos+6 > len(d.data) || hex4(d.data[d.pos+2:d.pos+6]) < 0 {
					return 0, 0, false, d.fail("bad \\u escape")
				}
				d.pos += 6
			default:
				return 0, 0, false, d.fail("bad escape")
			}
		case c < ' ':
			return 0, 0, false, d.fail("control character in string")
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				rewrite = true
			}
			d.pos += size
		}
	}
	return 0, 0, false, d.fail("unterminated string")
}

// stringValue consumes a string, or null as "".
func (d *decoder) stringValue() (string, error) {
	if d.literal("null") {
		return "", nil
	}
	start, end, rewrite, err := d.str()
	if err != nil {
		return "", err
	}
	if rewrite {
		return string(unquote(d.data[start:end])), nil
	}
	return string(d.data[start:end]), nil
}

// intValue consumes an integer that fits an int64 (and int), or null as 0.
// A fraction or exponent is an error, as encoding/json makes it one for an
// integer field.
func (d *decoder) intValue() (int, error) {
	if d.literal("null") {
		return 0, nil
	}
	d.ws()
	neg := d.pos < len(d.data) && d.data[d.pos] == '-'
	if neg {
		d.pos++
	}
	digits := d.pos
	// The magnitude is gathered in a uint64 and bounded by int's range as it
	// grows, so no prefix can overflow.
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var n uint64
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		digit := uint64(d.data[d.pos] - '0')
		if n > (limit-digit)/10 {
			return 0, d.fail("integer out of range")
		}
		n = n*10 + digit
		d.pos++
	}
	switch {
	case d.pos == digits:
		return 0, d.fail("expected integer")
	case d.data[digits] == '0' && d.pos-digits > 1:
		return 0, d.fail("leading zero")
	case d.pos < len(d.data) && (d.data[d.pos] == '.' || d.data[d.pos] == 'e' || d.data[d.pos] == 'E'):
		return 0, d.fail("expected integer")
	}
	if neg {
		return int(-n), nil
	}
	return int(n), nil
}

// reports consumes a reports array (null is nil) appended to dst[:0]. A
// positive count read before it sizes a fresh array, bounded by what the
// rest of the input could hold. With sites set, each report's raw site
// string is appended there.
func (d *decoder) reports(dst []rapid.Report, count int, sites *[][]byte) ([]rapid.Report, error) {
	if d.literal("null") {
		return nil, nil
	}
	if dst == nil {
		// Each report takes at least "{}," of the input.
		dst = make([]rapid.Report, 0, max(0, min(count, (len(d.data)-d.pos)/3+1)))
	}
	err := d.array(func() error {
		var rep rapid.Report
		var site []byte
		err := d.object(reportKeys, func(key []byte) (err error) {
			switch string(key) {
			case "offset":
				rep.Offset, err = d.intValue()
			case "code":
				rep.Code, err = d.intValue()
			case "site":
				if !d.literal("null") {
					var start, end int
					if start, end, _, err = d.str(); end > start {
						site = d.data[start-1 : end+1]
					}
				}
			default:
				err = d.skip(1)
			}
			return err
		})
		dst = append(dst, rep)
		if sites != nil {
			*sites = append(*sites, site)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// array walks an array's elements, calling elem to consume each.
func (d *decoder) array(elem func() error) error {
	if err := d.expect('['); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or ']'")
		}
	}
}

// skip consumes one value of any type, validating it, at nesting depth.
func (d *decoder) skip(depth int) error {
	if depth > maxDepth {
		return d.fail("nested too deeply")
	}
	switch c := d.peek(); {
	case c == '"':
		_, _, _, err := d.str()
		return err
	case c == '{':
		return d.object(nil, func([]byte) error { return d.skip(depth + 1) })
	case c == '[':
		return d.array(func() error { return d.skip(depth + 1) })
	case c == '-' || (c >= '0' && c <= '9'):
		return d.number()
	case d.literal("true"), d.literal("false"), d.literal("null"):
		return nil
	}
	return d.fail("expected value")
}

// number consumes a JSON number of any form.
func (d *decoder) number() error {
	digits := func() int {
		n := 0
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
			n++
		}
		return n
	}
	if d.data[d.pos] == '-' {
		d.pos++
	}
	first := d.pos
	if n := digits(); n == 0 || (n > 1 && d.data[first] == '0') {
		return d.fail("bad number")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if digits() == 0 {
			return d.fail("bad number")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if digits() == 0 {
			return d.fail("bad number")
		}
	}
	return nil
}

// hex4 parses four hex digits, -1 when they are not.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote rewrites the contents of a JSON string that str validated as
// encoding/json does: escapes resolved, a lone or mismatched surrogate
// and each byte of invalid UTF-8 replaced by U+FFFD.
func unquote(s []byte) []byte {
	out := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch c := s[i+1]; c {
			case 'b', 'f', 'n', 'r', 't':
				out = append(out, "\b\f\n\r\t"[strings.IndexByte("bfnrt", c)])
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(s[i+2:])); pair != utf8.RuneError {
							out = utf8.AppendRune(out, pair)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default: // '"', '\\', '/'
				out = append(out, s[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, r)
			} else {
				out = append(out, s[i:i+size]...)
			}
			i += size
		}
	}
	return out
}
