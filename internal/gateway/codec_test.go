package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	rapid "repro"
	"repro/internal/bench"
	"repro/internal/serve"
)

// refReport, refReply and refLine are the reply shapes as encoding/json
// reads and writes them, each report with its site.
type refReport struct {
	Offset int    `json:"offset"`
	Code   int    `json:"code"`
	Site   string `json:"site,omitempty"`
}

type refReply struct {
	Design  string      `json:"design"`
	Hash    string      `json:"hash"`
	Backend string      `json:"backend"`
	Count   int         `json:"count"`
	Reports []refReport `json:"reports"`
}

type refLine struct {
	Index        int         `json:"index"`
	Offset       int         `json:"offset"`
	Count        int         `json:"count"`
	Reports      []refReport `json:"reports"`
	Error        string      `json:"error,omitempty"`
	Code         string      `json:"code,omitempty"`
	RetryAfterMS int64       `json:"retry_after_ms,omitempty"`
}

// sameAsEncodingJSON fails the test unless line is what encoding/json
// writes for the value it holds, read into ref.
func sameAsEncodingJSON(t *testing.T, route string, line []byte, ref any) {
	t.Helper()
	if err := json.Unmarshal(line, ref); err != nil {
		t.Fatalf("%s: %q: %v", route, line, err)
	}
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(ref)
	if !bytes.Equal(line, want.Bytes()) {
		t.Fatalf("%s wrote\n%q\nencoding/json writes\n%q", route, line, want.Bytes())
	}
}

// TestWireBytesMatchEncodingJSON: for the five paper designs at one
// instance, every match reply serve and the gateway write (raw and JSON
// requests, gateway miss and hit) and every stream line both write is, byte
// for byte, encoding/json's encoding of the value it carries.
func TestWireBytesMatchEncodingJSON(t *testing.T) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	inputs := map[string][]byte{}
	for _, app := range bench.All() {
		name := strings.ToLower(app.Name)
		src, args := app.RAPID(1)
		if _, err := srv.AddDesign(serve.DesignSpec{Name: name, Source: src, Args: args}); err != nil {
			t.Fatal(err)
		}
		inputs[name] = app.Input(rng, 3<<10)
	}
	serveTS := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		serveTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	cfg := testGatewayConfig([]string{serveTS.URL}, nil)
	cfg.CacheMaxBytes = 16 << 20
	g := mustGateway(t, cfg)
	waitAllReady(t, g)
	gwTS := httptest.NewServer(g.Handler())
	t.Cleanup(gwTS.Close)

	body := func(req *http.Request) []byte {
		t.Helper()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", req.URL, resp.StatusCode, data)
		}
		return data
	}
	reports := 0
	for name, input := range inputs {
		for _, base := range []string{serveTS.URL, gwTS.URL, gwTS.URL} { // the gateway twice: a miss, then a hit
			for _, raw := range []bool{true, false} {
				data := body(wireRequest(t, base, name, input, raw))
				var ref refReply
				sameAsEncodingJSON(t, base+" match "+name, data, &ref)
				reports += len(ref.Reports)
			}
			req, _ := http.NewRequest(http.MethodPost, base+"/v1/match/stream?design="+name, bytes.NewReader(input))
			req.Header.Set("Content-Type", serve.RawContentType)
			lines := bytes.SplitAfter(body(req), []byte("\n"))
			if len(lines) < 2 {
				t.Fatalf("%s stream %s: %d lines", base, name, len(lines)-1)
			}
			for _, line := range lines[:len(lines)-1] {
				var ref refLine
				sameAsEncodingJSON(t, base+" stream "+name, line, &ref)
				reports += len(ref.Reports)
			}
		}
	}
	if reports == 0 {
		t.Fatal("no reply carried a report")
	}
}

// TestStreamLineRewriteAllocs pins the gateway's rewrite of one warm stream
// line, decode, rebase and encode, at zero allocations.
func TestStreamLineRewriteAllocs(t *testing.T) {
	line := serve.AppendStreamResult(nil, &serve.StreamResult{Index: 2, Offset: 40, Count: 3,
		Reports: []rapid.Report{{Offset: 41, Code: 1}, {Offset: 45, Code: 0}, {Offset: 50, Code: 1}}},
		serve.Sites{ByCode: serve.SiteTable(map[int]string{0: "m(abc)", 1: "word(<w>)"})})
	var ls lineScratch
	rewrite := func() {
		if _, err := ls.decode(line); err != nil {
			t.Fatal(err)
		}
		ls.rebase(7, 1000)
	}
	rewrite()
	want := `{"index":7,"offset":1000,"count":3,"reports":[{"offset":1001,"code":1,"site":"word(\u003cw\u003e)"},` +
		`{"offset":1005,"code":0,"site":"m(abc)"},{"offset":1010,"code":1,"site":"word(\u003cw\u003e)"}]}` + "\n"
	if string(ls.out) != want {
		t.Fatalf("rewritten line\n%s\nwant\n%s", ls.out, want)
	}
	if got := testing.AllocsPerRun(100, rewrite); got != 0 {
		t.Fatalf("rewriting a stream line: %v allocations, want 0", got)
	}
}
