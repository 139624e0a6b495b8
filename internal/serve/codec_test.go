package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	rapid "repro"
	"repro/internal/bench"
)

// wireReport, matchResponse and wireStreamResult are the reply shapes as
// encoding/json writes and reads them, each report with its site: the
// reference the codec is checked against.
type wireReport struct {
	Offset int    `json:"offset"`
	Code   int    `json:"code"`
	Site   string `json:"site,omitempty"`
}

type matchResponse struct {
	Design  string       `json:"design"`
	Hash    string       `json:"hash"`
	Backend string       `json:"backend"`
	Count   int          `json:"count"`
	Reports []wireReport `json:"reports"`
}

type wireStreamResult struct {
	Index        int          `json:"index"`
	Offset       int          `json:"offset"`
	Count        int          `json:"count"`
	Reports      []wireReport `json:"reports"`
	Error        string       `json:"error,omitempty"`
	Code         string       `json:"code,omitempty"`
	RetryAfterMS int64        `json:"retry_after_ms,omitempty"`
}

func jsonLine(tb testing.TB, v any) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// withSites attaches each report's site from sites, keeping nil as nil.
func withSites(reports []rapid.Report, sites map[int]string) []wireReport {
	if reports == nil {
		return nil
	}
	out := make([]wireReport, len(reports))
	for i, r := range reports {
		out[i] = wireReport{Offset: r.Offset, Code: r.Code, Site: sites[r.Code]}
	}
	return out
}

// bySite is the ByIndex form of sites for reports.
func bySite(reports []rapid.Report, sites map[int]string) [][]byte {
	out := make([][]byte, len(reports))
	for i, r := range reports {
		if s := sites[r.Code]; s != "" {
			out[i] = quoteString(nil, s)
		}
	}
	return out
}

// paperLines is, for each of the five paper designs at one instance, a
// match reply and the stream lines of four records, as serve writes them.
var paperLines = sync.OnceValues(func() ([][]byte, error) {
	var out [][]byte
	rng := rand.New(rand.NewSource(1))
	for _, app := range bench.All() {
		src, args := app.RAPID(1)
		prog, err := rapid.Parse(src)
		if err != nil {
			return nil, err
		}
		d, err := prog.Compile(args...)
		if err != nil {
			return nil, err
		}
		sites := Sites{ByCode: SiteTable(d.Sites())}
		input := app.Input(rng, 2<<10)
		reports, err := d.RunBytes(input)
		if err != nil {
			return nil, err
		}
		out = append(out, AppendMatchReply(nil, &MatchReply{Design: strings.ToLower(app.Name),
			Hash: "0123456789abcdef", Backend: BackendEngine, Count: len(reports), Reports: reports}, sites))
		records, offsets := rapid.SplitRecords(input)
		for i, rec := range records[:min(4, len(records))] {
			rs, err := d.RunBytes(rapid.FrameRecords(rec))
			if err != nil {
				return nil, err
			}
			for k := range rs {
				rs[k].Offset += offsets[i] - 1
			}
			out = append(out, AppendStreamResult(nil, &StreamResult{Index: i, Offset: offsets[i],
				Count: len(rs), Reports: append([]rapid.Report{}, rs...)}, sites))
		}
	}
	out = append(out, AppendStreamResult(nil, &StreamResult{Index: 3, Offset: 9,
		Error: ErrOverCapacity.Error(), Code: CodeOverCapacity, RetryAfterMS: 1000}, Sites{}))
	return out, nil
})

func seedPaperLines(f *testing.F, extra ...any) {
	lines, err := paperLines()
	if err != nil {
		f.Fatal(err)
	}
	for _, l := range lines {
		f.Add(append([]any{l}, extra...)...)
	}
}

// escapeRunes are the pieces random strings are built from: every class
// of byte and rune the encoder treats specially.
var escapeRunes = []string{"a", "Z", " ", "m(abc)", `"`, `\`, "/", "<", ">", "&", "\x00", "\x1f",
	"\b", "\f", "\n", "\r", "\t", "\x7f", "é", "世", "😀", "\u2028", "\u2029", "\ufffd"}

// invalidUTF8 are byte sequences that are not UTF-8.
var invalidUTF8 = []string{"\xff", "\xc3", "\xed\xa0\x80", "\xe2\x82"}

func randomString(rng *rand.Rand, valid bool) string {
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		if !valid && rng.Intn(5) == 0 {
			b.WriteString(invalidUTF8[rng.Intn(len(invalidUTF8))])
			continue
		}
		b.WriteString(escapeRunes[rng.Intn(len(escapeRunes))])
	}
	return b.String()
}

func randomInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return -rng.Intn(1000)
	case 2:
		return int(rng.Int63()) * (1 - 2*rng.Intn(2))
	}
	return rng.Intn(1 << 20)
}

// randomReports returns reports (nil, empty or up to eight) and a site
// table covering their codes, some sites empty.
func randomReports(rng *rand.Rand, valid bool) ([]rapid.Report, map[int]string) {
	sites := map[int]string{}
	for code := 0; code < 4; code++ {
		sites[code] = randomString(rng, valid)
	}
	if rng.Intn(6) == 0 {
		return nil, sites
	}
	reports := make([]rapid.Report, rng.Intn(9))
	for i := range reports {
		reports[i] = rapid.Report{Offset: randomInt(rng), Code: rng.Intn(5)}
	}
	return reports, sites
}

func randomReply(rng *rand.Rand, valid bool) (MatchReply, map[int]string) {
	reports, sites := randomReports(rng, valid)
	return MatchReply{Design: randomString(rng, valid), Hash: randomString(rng, valid),
		Backend: randomString(rng, valid), Count: randomInt(rng), Reports: reports}, sites
}

func randomLine(rng *rand.Rand, valid bool) (StreamResult, map[int]string) {
	reports, sites := randomReports(rng, valid)
	r := StreamResult{Index: randomInt(rng), Offset: randomInt(rng), Count: randomInt(rng), Reports: reports}
	if rng.Intn(2) == 0 {
		r.Error, r.Code, r.RetryAfterMS = randomString(rng, valid), randomString(rng, valid), int64(randomInt(rng))
	}
	return r, sites
}

// checkEncode compares the codec's bytes for a reply and a line, with
// sites by code and by index, to encoding/json's.
func checkEncode(t *testing.T, rng *rand.Rand) {
	t.Helper()
	reply, sites := randomReply(rng, false)
	want := jsonLine(t, matchResponse{Design: reply.Design, Hash: reply.Hash, Backend: reply.Backend,
		Count: reply.Count, Reports: withSites(reply.Reports, sites)})
	for _, s := range []Sites{{ByCode: SiteTable(sites)}, {ByIndex: bySite(reply.Reports, sites)}} {
		if got := AppendMatchReply(nil, &reply, s); !bytes.Equal(got, want) {
			t.Fatalf("reply %+v:\ncodec %q\njson  %q", reply, got, want)
		}
	}
	line, sites := randomLine(rng, false)
	want = jsonLine(t, wireStreamResult{Index: line.Index, Offset: line.Offset, Count: line.Count,
		Reports: withSites(line.Reports, sites), Error: line.Error, Code: line.Code, RetryAfterMS: line.RetryAfterMS})
	for _, s := range []Sites{{ByCode: SiteTable(sites)}, {ByIndex: bySite(line.Reports, sites)}} {
		if got := AppendStreamResult(nil, &line, s); !bytes.Equal(got, want) {
			t.Fatalf("line %+v:\ncodec %q\njson  %q", line, got, want)
		}
	}
}

// TestCodecEncodeMatchesJSON: the codec writes encoding/json's bytes for
// 2 000 random replies and lines whose strings hold every escaped class,
// and for the paper designs' replies.
func TestCodecEncodeMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkEncode(t, rng)
	}
	lines, err := paperLines()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		checkReencode(t, l)
	}
}

// checkReencode decodes data with encoding/json into the reference shape
// of its kind and checks that encoding/json writes data back unchanged.
func checkReencode(t *testing.T, data []byte) {
	t.Helper()
	var v any = &matchResponse{}
	if bytes.HasPrefix(data, []byte(`{"index"`)) {
		v = &wireStreamResult{}
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
	if want := jsonLine(t, v); !bytes.Equal(data, want) {
		t.Fatalf("codec wrote\n%q\nencoding/json writes\n%q", data, want)
	}
}

// foldedKey reports whether data holds a key that encoding/json matches to
// one of the fields only by folding case, which the codec does not do.
func foldedKey(data []byte, top []string) bool {
	var doc map[string]any
	if json.Unmarshal(data, &doc) != nil {
		return false
	}
	folds := func(k string, fields []string) bool {
		for _, f := range fields {
			if k != f && strings.EqualFold(k, f) {
				return true
			}
		}
		return false
	}
	for k, v := range doc {
		if folds(k, top) {
			return true
		}
		if !strings.EqualFold(k, "reports") {
			continue
		}
		elems, _ := v.([]any)
		for _, e := range elems {
			obj, _ := e.(map[string]any)
			for rk := range obj {
				if folds(rk, []string{"offset", "code", "site"}) {
					return true
				}
			}
		}
	}
	return false
}

func plainReports(ws []wireReport) []rapid.Report {
	if ws == nil {
		return nil
	}
	out := make([]rapid.Report, len(ws))
	for i, w := range ws {
		out[i] = rapid.Report{Offset: w.Offset, Code: w.Code}
	}
	return out
}

// checkDecodeReply: whenever the codec accepts data, encoding/json does
// and reads the same reply; decoding over a dirty reply changes nothing.
func checkDecodeReply(t *testing.T, data []byte) {
	t.Helper()
	var got MatchReply
	if DecodeMatchReply(data, &got) != nil || foldedKey(data, replyKeys) {
		return
	}
	var ref matchResponse
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("codec accepted %q, encoding/json refuses it: %v", data, err)
	}
	want := MatchReply{Design: ref.Design, Hash: ref.Hash, Backend: ref.Backend, Count: ref.Count,
		Reports: plainReports(ref.Reports)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\ncodec %+v\njson  %+v", data, got, want)
	}
	dirty := MatchReply{Design: "x", Count: 9, Reports: make([]rapid.Report, 3, 40)}
	if err := DecodeMatchReply(data, &dirty); err != nil || !reflect.DeepEqual(dirty, want) {
		t.Fatalf("%q over a used reply: %+v, %v; want %+v", data, dirty, err, want)
	}
}

// checkDecodeLine is checkDecodeReply for stream lines, with the sites
// passed through checked against encoding/json's.
func checkDecodeLine(t *testing.T, data []byte) {
	t.Helper()
	var got StreamResult
	var sites [][]byte
	if DecodeStreamResult(data, &got, &sites) != nil || foldedKey(data, lineKeys) {
		return
	}
	var ref wireStreamResult
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("codec accepted %q, encoding/json refuses it: %v", data, err)
	}
	want := StreamResult{Index: ref.Index, Offset: ref.Offset, Count: ref.Count, Reports: plainReports(ref.Reports),
		Error: ref.Error, Code: ref.Code, RetryAfterMS: ref.RetryAfterMS}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\ncodec %+v\njson  %+v", data, got, want)
	}
	if len(sites) != len(ref.Reports) {
		t.Fatalf("%q: %d sites for %d reports", data, len(sites), len(ref.Reports))
	}
	for i, raw := range sites {
		var site string
		if raw != nil && json.Unmarshal(raw, &site) != nil {
			t.Fatalf("%q: site %d is %q, not a JSON string", data, i, raw)
		}
		if site != ref.Reports[i].Site {
			t.Fatalf("%q: site %d reads %q, encoding/json %q", data, i, site, ref.Reports[i].Site)
		}
	}
	var plain StreamResult
	if err := DecodeStreamResult(data, &plain, nil); err != nil || !reflect.DeepEqual(plain, want) {
		t.Fatalf("%q without sites: %+v, %v", data, plain, err)
	}
}

// malformed are inputs the codec must refuse, each with an error.
var malformed = []string{"", " ", "null", "[]", `"x"`, "{", "}", `{"design"}`, `{"design":}`, `{"design":"a",}`,
	`{"design":"a"`, `{"design":"a"}x`, `{"design":"a"}{}`, `{"count":1.5}`, `{"count":1e3}`, `{"count":01}`,
	`{"count":-}`, `{"count":9223372036854775808}`, `{"count":-9223372036854775809}`, `{"count":"1"}`,
	`{"design":1}`, `{"reports":{}}`, `{"reports":[1]}`, `{"reports":[null]}`, `{"reports":[{"offset":1.0}]}`,
	`{"reports":[{"site":1}]}`, `{"reports":[{}`, `{"reports":[{},]}`, `{"design":"\x01"}`, `{"design":"\q"}`,
	`{"design":"\u12"}`, `{"design":"\u12g4"}`, `{"x":[1,2,}`, `{"x":tru}`, `{"x":nul}`, `{"x":-01}`, `{"x":1.}`,
	`{"x":1e}`, `{"x":.5}`, `{"x":+1}`, `{"x":{"a"}}`, `{"x":{1:2}}`, `{"design":"a","design":"b"}`,
	`{"reports":[{"code":1,"code":2}]}`, "{\"x\":" + strings.Repeat("[", 600) + strings.Repeat("]", 600) + "}",
	`{"index":1,"index":2}`, `{"retry_after_ms":1.5}`, "\xef\xbb\xbf{}"}

// TestDecodeRefusesMalformed: every malformed input is an error for both
// decoders, except a type or duplicate error on a key the other decoder
// does not know.
func TestDecodeRefusesMalformed(t *testing.T) {
	replyOnly := map[string]bool{`{"design":1}`: true, `{"design":"a","design":"b"}`: true}
	lineOnly := map[string]bool{`{"index":1,"index":2}`: true, `{"retry_after_ms":1.5}`: true}
	for _, in := range malformed {
		if err := DecodeMatchReply([]byte(in), &MatchReply{}); err == nil && !lineOnly[in] {
			t.Errorf("DecodeMatchReply(%q) accepted it", in)
		}
		if err := DecodeStreamResult([]byte(in), &StreamResult{}, nil); err == nil && !replyOnly[in] {
			t.Errorf("DecodeStreamResult(%q) accepted it", in)
		}
	}
}

// TestDecodeAcceptsAnyLayout: key order, whitespace, unknown keys, escaped
// keys, nulls and a count after the reports all read as encoding/json
// reads them.
func TestDecodeAcceptsAnyLayout(t *testing.T) {
	for _, in := range []string{
		`{"reports":[{"site":"s","code":2,"offset":1}],"count":1,"backend":"b","hash":"h","design":"d"}`,
		" \t\r\n{ \"design\" : \"d\" ,\n\"reports\" : [ { \"offset\" : -3 , \"code\" : 0 } ] } \n",
		`{"x":{"y":[1,-2.5e+3,true,false,null,"\u00e9\ud83d\ude00"]},"design":"a\u0000b\"\\\/\b\f\n\r\t","count":0}`,
		`{"\u0064esign":"escaped key","hash":"\ud800","backend":"\udc00\ud800x","reports":null}`,
		`{"design":null,"count":null,"reports":[{"offset":null,"code":null,"site":null}]}`,
		"{\"design\":\"bad \xff utf8 \xed\xa0\x80\",\"reports\":[]}", `{}`,
		`{"Design":"folded, skipped by the check"}`,
	} {
		checkDecodeReply(t, []byte(in))
		if err := DecodeMatchReply([]byte(in), &MatchReply{}); err != nil {
			t.Errorf("DecodeMatchReply(%q): %v", in, err)
		}
	}
	for _, in := range []string{
		`{"retry_after_ms":250,"code":"over_capacity","error":"e","index":3,"offset":9}`,
		`{"index":0,"offset":1,"count":2,"reports":[{"offset":3,"code":0,"site":"m(\u003c)"},{"offset":4,"code":1,"site":""}]}`,
	} {
		checkDecodeLine(t, []byte(in))
		if err := DecodeStreamResult([]byte(in), &StreamResult{}, nil); err != nil {
			t.Errorf("DecodeStreamResult(%q): %v", in, err)
		}
	}
}

func FuzzReplyDecode(f *testing.F) {
	seedPaperLines(f)
	for _, in := range malformed {
		f.Add([]byte(in))
	}
	f.Fuzz(checkDecodeReply)
}

func FuzzStreamLineDecode(f *testing.F) {
	seedPaperLines(f)
	for _, in := range malformed {
		f.Add([]byte(in))
	}
	f.Fuzz(checkDecodeLine)
}

// FuzzReplyEncode: the codec writes encoding/json's bytes for random
// replies and lines; the paper replies seed the generator.
func FuzzReplyEncode(f *testing.F) {
	seedPaperLines(f)
	f.Fuzz(func(t *testing.T, seed []byte) {
		var n int64
		for _, c := range seed {
			n = n*131 + int64(c)
		}
		checkEncode(t, rand.New(rand.NewSource(n)))
	})
}

// scramble writes members in a random order with random whitespace around
// every token and unknown keys among them.
func scramble(rng *rand.Rand, members [][2]string) string {
	ws := func() string { return []string{"", "", " ", "\n", "\t ", "\r\n  "}[rng.Intn(6)] }
	members = append([][2]string(nil), members...)
	for n := rng.Intn(3); n > 0; n-- {
		members = append(members, [2]string{fmt.Sprintf("unknown_%d", rng.Intn(100)), randomJSON(rng, 3)})
	}
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	var b strings.Builder
	b.WriteString(ws() + "{")
	for i, m := range members {
		if i > 0 {
			b.WriteString(ws() + ",")
		}
		key, _ := json.Marshal(m[0])
		b.WriteString(ws() + string(key) + ws() + ":" + ws() + m[1] + ws())
	}
	b.WriteString("}" + ws())
	return b.String()
}

// randomJSON is a random JSON value nested at most depth deep.
func randomJSON(rng *rand.Rand, depth int) string {
	var v any
	switch k := rng.Intn(7); {
	case k == 0 && depth > 0:
		elems := make([]string, rng.Intn(3))
		for i := range elems {
			elems[i] = randomJSON(rng, depth-1)
		}
		return "[" + strings.Join(elems, ",") + "]"
	case k == 1 && depth > 0:
		members := make([][2]string, rng.Intn(3))
		for i := range members {
			members[i] = [2]string{randomString(rng, true), randomJSON(rng, depth-1)}
		}
		return scramble(rng, members)
	case k == 2:
		v = rng.NormFloat64() * 1e6
	case k == 3:
		v = rng.Intn(2) == 0
	case k == 4:
		v = nil
	default:
		v = randomString(rng, true)
	}
	b, _ := json.Marshal(v)
	return string(b)
}

func marshal(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func scrambleReports(rng *rand.Rand, reports []rapid.Report, sites map[int]string) string {
	if reports == nil {
		return "null"
	}
	elems := make([]string, len(reports))
	for i, r := range reports {
		members := [][2]string{{"offset", marshal(r.Offset)}, {"code", marshal(r.Code)}}
		if s := sites[r.Code]; s != "" {
			members = append(members, [2]string{"site", marshal(s)})
		}
		elems[i] = scramble(rng, members)
	}
	return "[" + strings.Join(elems, ",") + "]"
}

// FuzzReplyRoundTrip: a random reply and line, encoded by encoding/json
// with keys shuffled, whitespace and unknown keys inserted, decode to the
// values encoded.
func FuzzReplyRoundTrip(f *testing.F) {
	seedPaperLines(f)
	f.Fuzz(func(t *testing.T, seed []byte) {
		var n int64
		for _, c := range seed {
			n = n*131 + int64(c)
		}
		rng := rand.New(rand.NewSource(n))
		reply, sites := randomReply(rng, true)
		doc := scramble(rng, [][2]string{{"design", marshal(reply.Design)}, {"hash", marshal(reply.Hash)},
			{"backend", marshal(reply.Backend)}, {"count", marshal(reply.Count)},
			{"reports", scrambleReports(rng, reply.Reports, sites)}})
		var got MatchReply
		if err := DecodeMatchReply([]byte(doc), &got); err != nil || !reflect.DeepEqual(got, reply) {
			t.Fatalf("%s:\ndecoded %+v, %v\nencoded %+v", doc, got, err, reply)
		}
		checkDecodeReply(t, []byte(doc))

		line, sites := randomLine(rng, true)
		members := [][2]string{{"index", marshal(line.Index)}, {"offset", marshal(line.Offset)},
			{"count", marshal(line.Count)}, {"reports", scrambleReports(rng, line.Reports, sites)}}
		if line.Error != "" || line.Code != "" || line.RetryAfterMS != 0 {
			members = append(members, [2]string{"error", marshal(line.Error)}, [2]string{"code", marshal(line.Code)},
				[2]string{"retry_after_ms", marshal(line.RetryAfterMS)})
		}
		doc = scramble(rng, members)
		var gotLine StreamResult
		var raw [][]byte
		if err := DecodeStreamResult([]byte(doc), &gotLine, &raw); err != nil || !reflect.DeepEqual(gotLine, line) {
			t.Fatalf("%s:\ndecoded %+v, %v\nencoded %+v", doc, gotLine, err, line)
		}
		if want := bySite(line.Reports, sites); !reflect.DeepEqual(raw, want) && len(want) > 0 {
			t.Fatalf("%s: sites %q, want %q", doc, raw, want)
		}
		checkDecodeLine(t, []byte(doc))
	})
}

// TestCodecAllocs pins the codec's allocations on warm scratch: a match
// reply decodes into its Reports and its three strings, a stream line into
// reused scratch decodes, and every encode, allocates nothing.
func TestCodecAllocs(t *testing.T) {
	lines, err := paperLines()
	if err != nil {
		t.Fatal(err)
	}
	var reply, line []byte
	for _, l := range lines {
		var r MatchReply
		if DecodeMatchReply(l, &r) == nil && len(r.Reports) > len(reply) {
			reply = l
		}
		var s StreamResult
		if DecodeStreamResult(l, &s, nil) == nil && s.Error == "" && len(s.Reports) > 2 {
			line = l
		}
	}
	if reply == nil || line == nil {
		t.Fatal("no paper reply with reports")
	}
	var r MatchReply
	got := testing.AllocsPerRun(100, func() {
		r = MatchReply{}
		if err := DecodeMatchReply(reply, &r); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Errorf("decoding a %d-report match reply: %v allocations, want <= 4", len(r.Reports), got)
	}
	t.Logf("decoding a %d-report match reply: %v allocations", len(r.Reports), got)
	var s StreamResult
	var sites [][]byte
	if got := testing.AllocsPerRun(100, func() {
		if err := DecodeStreamResult(line, &s, &sites); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("decoding a %d-report stream line into scratch: %v allocations, want 0", len(s.Reports), got)
	}
	table := SiteTable(map[int]string{0: "m(abc)", 1: "<x & y>"})
	buf := make([]byte, 0, 64<<10)
	if got := testing.AllocsPerRun(100, func() {
		buf = AppendMatchReply(buf[:0], &r, Sites{ByCode: table})
		buf = AppendStreamResult(buf[:0], &s, Sites{ByIndex: sites})
		buf = AppendStreamResult(buf[:0], &StreamResult{Error: "e\u2028", Code: CodeDraining, RetryAfterMS: 5}, Sites{})
	}); got != 0 {
		t.Errorf("encoding a reply and two lines: %v allocations, want 0", got)
	}
}

// TestQueryDesign: QueryDesign reads what url.ParseQuery(q).Get("design")
// reads, on hand-picked queries and on 20 000 random ones.
func TestQueryDesign(t *testing.T) {
	check := func(q string) {
		t.Helper()
		want, _ := url.ParseQuery(q)
		if got := QueryDesign(q); got != want.Get("design") {
			t.Fatalf("QueryDesign(%q) = %q, url.ParseQuery %q", q, got, want.Get("design"))
		}
	}
	for _, q := range []string{"", "design=a", "design=a+b%26c", "x=1&design=d&design=e", "design", "design=",
		"design=%zz&design=ok", "de%73ign=esc", "design;x=1&design=semi", "a=1;design=x", "&&design=a&", "design=a=b",
		"design=%", "d+esign=x", "design%3Dx=y", "DESIGN=x", "design=%E2%80%A8"} {
		check(q)
	}
	rng := rand.New(rand.NewSource(1))
	parts := []string{"design", "=", "&", ";", "%", "%6", "%64", "+", "a", "%2B", "de", "sign", "%zz"}
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			b.WriteString(parts[rng.Intn(len(parts))])
		}
		check(b.String())
	}
}
