package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	rapid "repro"
	"repro/internal/gateway"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/serve/client"
)

// replica is one in-process serve.Server behind the harness's own listener,
// so that the traced pass can put its middleware around serve.Handler().
type replica struct {
	srv *serve.Server
	hs  *http.Server
	url string
}

// listen serves h on a loopback port of the kernel's choosing.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns when shutdown closes the listener
	return hs, "http://" + ln.Addr().String(), nil
}

// mountReplica is serve.New + AddDesign for every bank design (compiled and
// placed inside the server, Placement on) + listen.
func mountReplica(reg *telemetry.Registry, tr *tracer) (*replica, error) {
	srv, err := serve.New(serve.Config{Placement: true, Telemetry: reg})
	if err != nil {
		return nil, err
	}
	for _, s := range bank() {
		src, args := s.source()
		if _, err := srv.AddDesign(serve.DesignSpec{Name: s.name, Source: src, Args: args}); err != nil {
			return nil, err
		}
	}
	hs, url, err := listen(tr.middleware("serve.handler", srv.Handler()))
	if err != nil {
		return nil, err
	}
	return &replica{srv, hs, url}, nil
}

func shutdown(servers ...interface{ Shutdown(context.Context) error }) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range servers {
		_ = s.Shutdown(ctx) // tear-down of a finished pass: nothing depends on it
	}
}

func (r *replica) close() { shutdown(r.hs, r.srv) }

// httpCaller is one closed-loop client: a serve client over its own
// keep-alive connection.
type httpCaller struct {
	c     *client.Client
	conns *http.Transport
	seen  reply
	tr    *tracer
	fails *failures
}

func newHTTPCaller(base string, tr *tracer, fails *failures) *httpCaller {
	hc := &httpCaller{
		conns: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		tr:    tr,
		fails: fails,
	}
	hc.c = client.New(base, client.WithHTTPClient(&http.Client{
		Timeout:   5 * time.Minute, // the serve client's own default
		Transport: &transport{base: hc.conns, tr: tr, name: "client.roundtrip", seen: &hc.seen},
	}))
	return hc
}

// match sends one /v1/match and checks the reply: no error, no refusal along
// the way (the client would retry one silently), the cache outcome the
// harness arranged ("match" when there is no cache), and the oracle's set.
func (hc *httpCaller) match(root spanRef, kind string, it *item) bool {
	refused := hc.seen.refused
	s := hc.tr.begin("client.request", kind, root)
	res, err := hc.c.Match(hc.tr.context(s), it.design, it.input)
	hc.tr.end(s)
	switch {
	case err != nil:
		return hc.fails.failf("%s match on %s: %v", kind, it.design, err)
	case hc.seen.refused != refused:
		return hc.fails.failf("%s match on %s: refused before it succeeded", kind, it.design)
	case kind != "match" && hc.seen.cache != kind:
		return hc.fails.failf("match on %s: cache outcome %q, want %q", it.design, hc.seen.cache, kind)
	case !it.want.matches(res.Reports, 0):
		return hc.fails.failf("%s match on %s: %d reports, want %d", kind, it.design, len(res.Reports), it.want.n)
	}
	return true
}

// prepareServeSmall: one op is one /v1/match of a 512 B input against one
// serve.Server, the four small designs in rotation, 256 inputs each. Caller
// c walks the half of each pool starting at c*128, so the two callers
// between them touch every input.
func prepareServeSmall(seed int64) (setupFunc, error) {
	const perDesign, size = 256, 512
	rng := rand.New(rand.NewSource(seed))
	pools := make([][]item, len(smallDesigns))
	for i, name := range smallDesigns {
		spec := specByName(name)
		var err error
		if pools[i], err = items(spec, draw(spec, rng, perDesign, size)); err != nil {
			return nil, err
		}
	}
	return func(reg *telemetry.Registry, tr *tracer) (*instance, error) {
		inst := &instance{fails: &failures{}}
		start := time.Now()
		rep, err := mountReplica(reg, tr)
		if err != nil {
			return nil, err
		}
		inst.layers.mount = time.Since(start)
		callers := []*httpCaller{newHTTPCaller(rep.url, tr, inst.fails), newHTTPCaller(rep.url, tr, inst.fails)}
		inst.close = func() {
			for _, hc := range callers {
				hc.conns.CloseIdleConnections()
			}
			rep.close()
		}
		inst.op = func(c *caller, root spanRef) bool {
			pool := pools[c.seq%len(pools)]
			it := &pool[(c.id*perDesign/2+c.seq/len(pools))%perDesign]
			c.seq++
			return callers[c.id].match(root, "match", it)
		}
		start = time.Now()
		if err := firstPass(inst, 2, len(pools)*perDesign/2); err != nil {
			inst.close()
			return nil, err
		}
		inst.layers.warm = time.Since(start)
		return inst, nil
	}, nil
}

// Sizes of the gateway-mixed workload. The cache bound is the one
// non-default gateway setting. It is sized so that the steady state is
// reached inside the untimed warm-up window: at ≈1.5 KiB per stored reply it
// holds ≈170 entries, which 45 sessions fill.
const (
	gwCacheBytes = 256 << 10
	gwHotSet     = 64   // 2 KiB inputs that stay cached: every match on one is a hit
	gwMissPool   = 1024 // 4 KiB inputs walked in order: reuse distance = the whole pool
	gwStreams    = 32
	gwRecords    = 8 // records per stream
	// gwRecordBytes keeps a framed stream (3081 B) and its request headers
	// inside one 4 KiB write. serve answers each record as soon as it has run,
	// and net/http's HTTP/1 server closes the request body at the first
	// response byte, so a stream that reaches serve in two reads comes back
	// truncated with an error line. 8 × 512 B is just over; see README.md.
	gwRecordBytes = 384
	gwHitsPerOp   = 16
	gwMissesPerOp = 4
	// gwEntryFloor is the least the gateway's cache charges for an entry
	// (fixed overhead plus its two key hashes; the reply body comes on top).
	gwEntryFloor = 256 + 16 + 32
)

// stream is one NDJSON stream's records with the oracle of each.
type stream struct {
	design  string
	records [][]byte
	want    []expect
}

// prepareGatewayMixed: one op is a session against the gateway in front of
// two replicas — 16 matches on the hot set (cache hits) with 4 matches on
// the miss pool among them (misses that store and evict), then one
// MatchRecords stream of 8 records. Every match's X-Rapid-Cache outcome is
// checked, so a hot entry evicted or a miss served from cache is a failed op.
func prepareGatewayMixed(seed int64) (setupFunc, error) {
	rng := rand.New(rand.NewSource(seed))
	var hot, miss []item
	var streams []stream
	for _, name := range smallDesigns {
		spec := specByName(name)
		h, err := items(spec, draw(spec, rng, gwHotSet/len(smallDesigns), 2<<10))
		if err != nil {
			return nil, err
		}
		m, err := items(spec, draw(spec, rng, gwMissPool/len(smallDesigns), 4<<10))
		if err != nil {
			return nil, err
		}
		hot, miss = append(hot, h...), append(miss, m...)
		for i := 0; i < gwStreams/len(smallDesigns); i++ {
			st := stream{design: name}
			framed := make([][]byte, gwRecords)
			for j := range framed {
				st.records = append(st.records, record(spec.app, rng, gwRecordBytes))
				framed[j] = rapid.FrameRecords(st.records[j]) // what serve runs per record
			}
			if st.want, err = oracle(spec, framed, false); err != nil {
				return nil, err
			}
			streams = append(streams, st)
		}
	}
	// Interleave the designs so consecutive requests spread over them.
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	rng.Shuffle(len(miss), func(i, j int) { miss[i], miss[j] = miss[j], miss[i] })
	rng.Shuffle(len(streams), func(i, j int) { streams[i], streams[j] = streams[j], streams[i] })
	var nextMiss atomic.Int64 // shared by the callers, so no miss input recurs within gwMissPool misses

	return func(reg *telemetry.Registry, tr *tracer) (*instance, error) {
		inst := &instance{fails: &failures{}}
		start := time.Now()
		// Replicas are separate processes in a deployment: mount them at once.
		reps := make([]*replica, 2)
		errs := make([]error, len(reps))
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reps[i], errs[i] = mountReplica(reg, tr)
			}(i)
		}
		wg.Wait()
		inst.layers.mount = time.Since(start)
		closeReplicas := func() {
			for _, r := range reps {
				if r != nil {
					r.close()
				}
			}
		}
		for _, err := range errs {
			if err != nil {
				closeReplicas()
				return nil, err
			}
		}

		start = time.Now()
		cfg := gateway.Config{
			Fleet:         gateway.FleetManifest{Replicas: []string{reps[0].url, reps[1].url}, DefaultReplication: 2},
			CacheMaxBytes: gwCacheBytes,
			Telemetry:     reg,
		}
		if tr != nil {
			cfg.HTTPClient = &http.Client{
				Timeout:   5 * time.Minute, // the gateway's own default
				Transport: &transport{base: http.DefaultTransport, tr: tr, name: "gateway.upstream"},
			}
		}
		gw, err := gateway.New(cfg)
		if err != nil {
			closeReplicas()
			return nil, err
		}
		hs, url, err := listen(tr.middleware("gateway.handler", gw.Handler()))
		if err != nil {
			shutdown(gw)
			closeReplicas()
			return nil, err
		}
		callers := []*httpCaller{newHTTPCaller(url, tr, inst.fails), newHTTPCaller(url, tr, inst.fails)}
		inst.close = func() {
			for _, hc := range callers {
				hc.conns.CloseIdleConnections()
			}
			shutdown(hs, gw)
			http.DefaultTransport.(*http.Transport).CloseIdleConnections() // the gateway's upstream connections
			closeReplicas()
		}
		for callers[0].c.Ready(context.Background()) != nil { // until the first probe has marked a replica ready
			if time.Since(start) > 10*time.Second {
				inst.close()
				return nil, fmt.Errorf("gateway not ready after 10 s")
			}
			time.Sleep(time.Millisecond)
		}
		inst.layers.ready = time.Since(start)

		sendStream := func(hc *httpCaller, root spanRef, st *stream) bool {
			s := tr.begin("client.request", "stream", root)
			results, err := hc.c.MatchRecords(tr.context(s), st.design, st.records...)
			tr.end(s)
			if err != nil || len(results) != len(st.records) {
				return inst.fails.failf("stream on %s: %d of %d records, err %v", st.design, len(results), len(st.records), err)
			}
			for i, r := range results {
				// Framed symbol k of a record is stream offset r.Offset-1+k.
				if r.Err != nil || !st.want[i].matches(r.Reports, r.Offset-1) {
					return inst.fails.failf("stream on %s record %d: %d reports, want %d (err %v)",
						st.design, i, len(r.Reports), st.want[i].n, r.Err)
				}
			}
			return true
		}
		inst.op = func(c *caller, root spanRef) bool {
			hc := callers[c.id]
			seq := c.seq*len(callers) + c.id // the callers interleave over the hot set and the streams
			c.seq++
			ok := true
			for i := 0; i < gwHitsPerOp; i++ {
				ok = hc.match(root, "hit", &hot[(seq*gwHitsPerOp+i)%len(hot)]) && ok
				if (i+1)%(gwHitsPerOp/gwMissesPerOp) == 0 {
					ok = hc.match(root, "miss", &miss[int(nextMiss.Add(1))%len(miss)]) && ok
				}
			}
			return sendStream(hc, root, &streams[seq%len(streams)]) && ok
		}

		// First pass: the hot set once (each a miss that stores its reply)
		// and every stream. The miss pool is checked as the run walks it.
		start = time.Now()
		for i := range hot {
			callers[0].match(spanRef{}, "miss", &hot[i])
		}
		for i := range streams {
			sendStream(callers[1], spanRef{}, &streams[i])
		}
		inst.layers.warm = time.Since(start)
		if err := inst.fails.err(); err != nil {
			inst.close()
			return nil, err
		}
		return inst, nil
	}, nil
}
