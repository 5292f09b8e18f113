package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// The daemon workload drives an in-process serve.Server over a loopback
// listener in a closed loop: each of o.workers keep-alive connections
// sends its next request as soon as the previous answer arrives, with no
// think time. An open loop is not usable on a small container host: for
// sub-millisecond sleeps time.Sleep overshoots by about 1 ms at the median
// and 1.5–3 ms at p99, while the daemon's handlers take 5–200 µs.

// fabricSpec names a resident fabric exactly as the daemon's requests do.
type fabricSpec = serve.FabricSelector

// maxFabrics is the daemon's LRU capacity (cmd/fatpathsd's default).
const maxFabrics = 8

// daemonShape sizes one daemon leg: the generated request list, the
// warm-up, the loopback duration (traced runs) and the per-endpoint
// sample counts of the direct-to-handler leg.
type daemonShape struct {
	requests int
	warmup   int
	loopSecs func(o options) float64
	direct   map[string]int
}

// fullDaemon is the daemon-mix workload.
var fullDaemon = daemonShape{
	requests: 8192,
	warmup:   4000,
	loopSecs: func(o options) float64 { return o.seconds / 3 },
	direct:   map[string]int{"nexthop": 40000, "paths": 4000, "whatif": 4000, "healthz": 2000},
}

// probeDaemon is the short served probe a sweep's traced run makes over
// one of its own fabrics.
var probeDaemon = daemonShape{
	requests: 2048,
	warmup:   1000,
	loopSecs: func(options) float64 { return 1 },
	direct:   map[string]int{"nexthop": 8000, "paths": 800, "whatif": 800, "healthz": 400},
}

// daemonFabrics are daemon-mix's two resident fabrics.
func daemonFabrics(seed int64) []fabricSpec {
	return []fabricSpec{
		{Topology: scenario.Topology{Kind: "SF", Param: 7}, Seed: seed},
		{Topology: scenario.Topology{Kind: "DF", Param: 4}, Seed: seed},
	}
}

// selectorOf names the fabric of a sweep cell.
func selectorOf(s scenario.Spec, seed int64) fabricSpec {
	return fabricSpec{Topology: s.Topology, Layers: s.Layers, Rho: s.Rho, Construction: s.Construction, Seed: seed}
}

// fabricCell converts a selector to the scenario cell the daemon builds
// for it, and the effective run seed (the daemon's default is 42).
func fabricCell(fs fabricSpec) (scenario.Spec, int64) {
	seed := fs.Seed
	if seed == 0 {
		seed = 42
	}
	return scenario.Spec{
		Topology: fs.Topology, Layers: fs.Layers, Rho: fs.Rho, Construction: fs.Construction,
		Pattern: scenario.Pattern{Kind: "uniform"},
	}, seed
}

// fabricQuery renders a selector as the GET endpoints' query parameters.
func fabricQuery(fs fabricSpec) url.Values {
	q := url.Values{}
	q.Set("topo", fs.Topology.Kind)
	set := func(k string, v int) {
		if v != 0 {
			q.Set(k, strconv.Itoa(v))
		}
	}
	if fs.Topology.Class != "" {
		q.Set("class", fs.Topology.Class)
	}
	set("param", fs.Topology.Param)
	set("param2", fs.Topology.Param2)
	set("layers", fs.Layers)
	if fs.Rho != 0 {
		q.Set("rho", strconv.FormatFloat(fs.Rho, 'g', -1, 64))
	}
	if fs.Construction != "" {
		q.Set("construction", fs.Construction)
	}
	_, seed := fabricCell(fs)
	q.Set("seed", strconv.FormatInt(seed, 10))
	return q
}

// request is one generated daemon request with its expected answer.
type request struct {
	Kind   string `json:"kind"`
	Method string `json:"method"`
	Target string `json:"target"`
	Body   string `json:"body,omitempty"`

	fabric  int
	triples []serve.QueryTriple
	edges   []int
	raw     []byte      // the request as sent on the wire
	want    []byte      // the expected answer's canonical encoding
	wantVal interface{} // the expected answer, decoded from want
}

// verify reports whether body is the expected answer: byte-equal to the
// canonical encoding, or decoding to an equal value (so a change of
// encoding alone is not a failure).
func (r *request) verify(body []byte) bool {
	if bytes.Equal(body, r.want) {
		return true
	}
	got := reflect.New(reflect.TypeOf(r.wantVal))
	if err := json.Unmarshal(body, got.Interface()); err != nil {
		return false
	}
	return reflect.DeepEqual(got.Elem().Interface(), r.wantVal)
}

// offline is the offline engine the daemon's answers are checked against:
// each fabric built by scenario.BuildFabric at the same seed, tables built
// eagerly as the daemon admits them.
type offline struct {
	fabs []*core.Fabric
}

func buildOffline(fabrics []fabricSpec) (*offline, error) {
	off := &offline{}
	for _, fs := range fabrics {
		spec, seed := fabricCell(fs)
		_, fab, err := scenario.BuildFabric(spec, seed, nil)
		if err != nil {
			return nil, err
		}
		fab.Fwd.BuildAll(1)
		off.fabs = append(off.fabs, fab)
	}
	return off, nil
}

// hopReader is the read surface shared by a fabric's forwarding and its
// what-if views.
type hopReader interface {
	Next(l, s, d int) int32
	Candidates(l, s, d int) []int32
	PathLen(l, s, d int) int
}

func hopAnswer(fwd hopReader, q serve.QueryTriple) serve.HopAnswer {
	return serve.HopAnswer{
		Layer: q.Layer, Src: q.Src, Dst: q.Dst,
		Next:       fwd.Next(q.Layer, q.Src, q.Dst),
		Dist:       int32(fwd.PathLen(q.Layer, q.Src, q.Dst)),
		Candidates: append([]int32{}, fwd.Candidates(q.Layer, q.Src, q.Dst)...),
	}
}

// pathsAnswer is the /paths answer: each layer's representative route
// and the distinct (first hop, length) routes across layers.
func pathsAnswer(fab *core.Fabric, src, dst int) serve.PathsAnswer {
	ans := serve.PathsAnswer{Src: src, Dst: dst}
	type route struct {
		first int32
		hops  int
	}
	distinct := map[route]bool{}
	for l := 0; l < fab.Fwd.NumLayers(); l++ {
		lp := serve.LayerPath{Layer: l, Len: fab.Fwd.PathLen(l, src, dst)}
		if lp.Len >= 0 {
			lp.Candidates = len(fab.Fwd.Candidates(l, src, dst))
			lp.Path = walkPath(fab, l, src, dst)
			for _, nh := range fab.Fwd.Candidates(l, src, dst) {
				distinct[route{nh, lp.Len}] = true
			}
		}
		ans.Layers = append(ans.Layers, lp)
	}
	ans.DistinctPaths = len(distinct)
	return ans
}

// walkPath follows the representative next hops from src to dst within a
// layer (nil when a hole or a loop interrupts the walk).
func walkPath(fab *core.Fabric, layer, src, dst int) []int32 {
	path := []int32{int32(src)}
	for v := src; v != dst; {
		nxt := fab.Fwd.Next(layer, v, dst)
		if nxt < 0 || len(path) > fab.Topo.Nr() {
			return nil
		}
		path = append(path, nxt)
		v = int(nxt)
	}
	return path
}

// expect computes a request's answer on the offline engine.
func (off *offline) expect(r *request, nFabrics int) interface{} {
	fab := off.fabs[r.fabric]
	switch r.Kind {
	case "nexthop":
		return hopAnswer(fab.Fwd, r.triples[0])
	case "paths":
		return pathsAnswer(fab, r.triples[0].Src, r.triples[0].Dst)
	case "whatif":
		derived := fab.Fwd.WithoutEdges(r.edges)
		shared := derived.Engine().Stat().TablesBuilt
		ans := serve.WhatifAnswer{
			FailedEdges:       append([]int{}, r.edges...),
			SharedTables:      shared,
			InvalidatedTables: fab.Fwd.Engine().Stat().TablesBuilt - shared,
			Answers:           make([]serve.HopAnswer, 0, len(r.triples)),
		}
		for _, q := range r.triples {
			ans.Answers = append(ans.Answers, hopAnswer(derived, q))
		}
		return ans
	}
	return serve.HealthAnswer{Status: "ok", Fabrics: nFabrics, MaxFabrics: maxFabrics, Fingerprint: scenario.EngineFingerprint}
}

// setExpected encodes the expected answer canonically and keeps its
// decoded form for the semantic comparison.
func (r *request) setExpected(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	r.want = append(b, '\n')
	dec := reflect.New(reflect.TypeOf(v))
	if err := json.Unmarshal(b, dec.Interface()); err != nil {
		return err
	}
	r.wantVal = dec.Elem().Interface()
	return nil
}

// genRequests draws the request mix from the seed: about 81% /nexthop,
// 6% /paths, 6% /whatif with 1–3 failed edges and two queries, 1%
// /healthz, and the remaining 6% more /nexthop. Fabrics, layers and router
// pairs are uniform.
func genRequests(seed int64, n int, fabrics []fabricSpec, off *offline) ([]*request, error) {
	rng := rand.New(rand.NewSource(seed))
	triple := func(fab *core.Fabric) serve.QueryTriple {
		nr := fab.Topo.Nr()
		src := rng.Intn(nr)
		dst := rng.Intn(nr - 1)
		if dst >= src {
			dst++
		}
		return serve.QueryTriple{Layer: rng.Intn(fab.Fwd.NumLayers()), Src: src, Dst: dst}
	}
	reqs := make([]*request, n)
	for i := range reqs {
		f := rng.Intn(len(fabrics))
		fab := off.fabs[f]
		r := &request{fabric: f, Method: "GET"}
		q := fabricQuery(fabrics[f])
		switch u := rng.Float64(); {
		case u < 0.06:
			r.Kind = "paths"
			r.triples = []serve.QueryTriple{triple(fab)}
			q.Set("src", strconv.Itoa(r.triples[0].Src))
			q.Set("dst", strconv.Itoa(r.triples[0].Dst))
			r.Target = "/paths?" + q.Encode()
		case u < 0.12:
			r.Kind, r.Method, r.Target = "whatif", "POST", "/whatif"
			r.triples = []serve.QueryTriple{triple(fab), triple(fab)}
			m := fab.Topo.G.M()
			for _, e := range rng.Perm(m)[:1+rng.Intn(3)] {
				r.edges = append(r.edges, e)
			}
			body, err := json.Marshal(serve.WhatifRequest{Fabric: fabrics[f], FailedEdges: r.edges, Queries: r.triples})
			if err != nil {
				return nil, err
			}
			r.Body = string(body)
		case u < 0.13:
			r.Kind, r.Target = "healthz", "/healthz"
		default:
			r.Kind = "nexthop"
			r.triples = []serve.QueryTriple{triple(fab)}
			q.Set("layer", strconv.Itoa(r.triples[0].Layer))
			q.Set("src", strconv.Itoa(r.triples[0].Src))
			q.Set("dst", strconv.Itoa(r.triples[0].Dst))
			r.Target = "/nexthop?" + q.Encode()
		}
		if r.Method == "POST" {
			r.raw = []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", r.Target, len(r.Body), r.Body))
		} else {
			r.raw = []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: perfbench\r\n\r\n", r.Target))
		}
		if err := r.setExpected(off.expect(r, len(fabrics))); err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}

// admit creates a daemon and admits every fabric with the eager table
// build; it returns the server and the admission time of each fabric.
func admit(fabrics []fabricSpec, workers int) (*serve.Server, []time.Duration, error) {
	srv := serve.New(serve.Config{MaxFabrics: maxFabrics, Parallelism: workers}, obs.NewRegistry())
	var times []time.Duration
	for _, fs := range fabrics {
		spec, seed := fabricCell(fs)
		t0 := time.Now()
		if _, _, err := srv.Fabrics().Get(spec, seed); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return srv, times, nil
}

// daemonSetup admits the fabrics five times (the median total is
// setup_s; divided by the fabric count it is serve.admission_ms), keeps
// the last server, and generates the request mix with its expected
// answers before any timing starts.
func daemonSetup(o options, fabrics []fabricSpec, shape daemonShape) (*serve.Server, []*request, float64, float64, error) {
	var srv *serve.Server
	var totals []float64
	for i := 0; i < 5; i++ {
		// Collect the previous repetition's daemon first, so the repeated
		// set-up neither inflates the peak memory nor times a GC it caused.
		srv = nil
		runtime.GC()
		s, times, err := admit(fabrics, o.workers)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		srv = s
		var sum time.Duration
		for _, d := range times {
			sum += d
		}
		totals = append(totals, sum.Seconds())
	}
	off, err := buildOffline(fabrics)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	reqs, err := genRequests(o.seed, shape.requests, fabrics, off)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if err := writeJSONFile(o, "requests", reqs); err != nil {
		return nil, nil, 0, 0, err
	}
	setup := median(totals)
	return srv, reqs, setup, setup * 1e3 / float64(len(fabrics)), nil
}

// loopWindows is the number of equal time windows a loopback leg is cut
// into; the end-to-end daemon metrics are medians over windows, so a burst
// of contention from outside the process moves at most a few of them.
const loopWindows = 10

// loopResult is one closed-loop leg's outcome: the request count and, per
// window, the throughput and latency percentiles.
type loopResult struct {
	requests  int
	rate      []float64 // requests per second
	p50, p99  []float64 // µs
	t         tally
	clientCPU time.Duration
	procCPU   time.Duration
	gcCycles  uint32
	gcPauseNs uint64
}

// loopback serves h on a loopback listener and drives it in a closed loop
// from conns keep-alive connections: each connection first sends warmup
// requests, then all measure together for secs seconds. With
// measureClient, every client goroutine holds its own OS thread, so its
// thread CPU time is the client's cost.
func loopback(h http.Handler, reqs []*request, conns, warmup int, secs float64, measureClient bool) (loopResult, error) {
	var res loopResult
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	type clientOut struct {
		lat   []float32
		marks []int // lat index at which each window starts
		t     tally
		cpu   time.Duration
		err   error
	}
	outs := make([]clientOut, conns)
	var warm, wg sync.WaitGroup
	begin := make(chan time.Time)
	window := time.Duration(secs * float64(time.Second) / loopWindows)
	warm.Add(conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			if measureClient {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				out.err = err
				warm.Done()
				<-begin
				return
			}
			defer conn.Close()
			// A stuck server fails the run instead of hanging it.
			conn.SetDeadline(time.Now().Add(time.Duration(secs*float64(time.Second)) + time.Minute))
			br := bufio.NewReaderSize(conn, 64<<10)
			var body bytes.Buffer
			i := c * len(reqs) / conns
			do := func() (float64, bool, error) {
				r := reqs[i%len(reqs)]
				i++
				t0 := time.Now()
				if _, err := conn.Write(r.raw); err != nil {
					return 0, false, err
				}
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					return 0, false, err
				}
				body.Reset()
				_, err = body.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil {
					return 0, false, err
				}
				lat := float64(time.Since(t0).Nanoseconds()) / 1e3
				return lat, resp.StatusCode == http.StatusOK && r.verify(body.Bytes()), nil
			}
			for n := 0; n < warmup && out.err == nil; n++ {
				_, _, out.err = do()
			}
			warm.Done()
			start := <-begin
			if out.err != nil {
				return
			}
			deadline := start.Add(window * loopWindows)
			// Reserved up front, so the samples' memory grows with the
			// request count instead of in doubling copies.
			out.lat = make([]float32, 0, int(secs*60000)/conns+1024)
			out.marks = []int{0}
			next := start.Add(window)
			cpu0 := cpuTime(rusageThread)
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				for !now.Before(next) {
					out.marks = append(out.marks, len(out.lat))
					next = next.Add(window)
				}
				lat, ok, err := do()
				if err != nil {
					out.err = err
					return
				}
				out.lat = append(out.lat, float32(lat))
				out.t.check(ok, "%s %s: wrong answer", reqs[(i-1)%len(reqs)].Method, reqs[(i-1)%len(reqs)].Target)
			}
			out.cpu = cpuTime(rusageThread) - cpu0
			for len(out.marks) <= loopWindows {
				out.marks = append(out.marks, len(out.lat))
			}
		}(c)
	}
	warm.Wait()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	proc0 := cpuTime(syscall.RUSAGE_SELF)
	start := time.Now()
	for c := 0; c < conns; c++ {
		begin <- start
	}
	wg.Wait()
	res.procCPU = cpuTime(syscall.RUSAGE_SELF) - proc0
	runtime.ReadMemStats(&ms1)
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	for _, out := range outs {
		if out.err != nil {
			return res, fmt.Errorf("loopback client: %w", out.err)
		}
		res.t.add(out.t)
		res.clientCPU += out.cpu
		res.requests += len(out.lat)
	}
	for k := 0; k < loopWindows; k++ {
		var lat []float32
		for _, out := range outs {
			lat = append(lat, out.lat[out.marks[k]:out.marks[k+1]]...)
		}
		res.rate = append(res.rate, float64(len(lat))/window.Seconds())
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		res.p50 = append(res.p50, quantile(lat, 0.50))
		res.p99 = append(res.p99, quantile(lat, 0.99))
	}
	return res, nil
}

// plainDaemon measures daemon-mix end to end.
func plainDaemon(o options) (map[string]metric, tally, error) {
	fabrics := daemonFabrics(o.seed)
	srv, reqs, setup, _, err := daemonSetup(o, fabrics, fullDaemon)
	if err != nil {
		return nil, tally{}, err
	}
	res, err := loopback(srv.Handler(), reqs, o.workers, fullDaemon.warmup, o.seconds, false)
	if err != nil {
		return nil, res.t, err
	}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, res.t, err
	}
	if res.requests == 0 {
		return nil, res.t, fmt.Errorf("the loopback leg completed no requests")
	}
	return map[string]metric{
		"ops_per_s":  {median(res.rate), "1/s"},
		"op_p50_us":  {median(res.p50), "us"},
		"op_p99_us":  {median(res.p99), "us"},
		"setup_s":    {setup, "s"},
		"max_rss_mb": {rss, "MiB"},
	}, res.t, nil
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.body.Reset()
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// directLeg sends one endpoint's requests straight to the handler, n
// calls cycling over reqs, once untraced and once with a span per call.
// It returns the per-call span durations (µs), the untraced and traced
// batch times, and the heap objects allocated per untraced call.
func directLeg(h http.Handler, tr *tracer, kind string, reqs []*request, n int, t *tally) ([]float64, time.Duration, time.Duration, float64, error) {
	hreqs := make([]*http.Request, len(reqs))
	bodies := make([]*bodyReader, len(reqs))
	for i, r := range reqs {
		bodies[i] = &bodyReader{}
		hr, err := http.NewRequest(r.Method, "http://perfbench"+r.Target, nil)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		if r.Body != "" {
			hr.Header.Set("Content-Type", "application/json")
			hr.ContentLength = int64(len(r.Body))
		}
		hreqs[i] = hr
	}
	rec := &recorder{h: http.Header{}}
	call := func(i int) {
		j := i % len(reqs)
		hr := hreqs[j]
		if reqs[j].Body != "" {
			bodies[j].Reset([]byte(reqs[j].Body))
			hr.Body = bodies[j]
		}
		rec.reset()
		h.ServeHTTP(rec, hr)
	}
	check := func(i int) {
		r := reqs[i%len(reqs)]
		t.check(rec.code == http.StatusOK && r.verify(rec.body.Bytes()), "direct %s %s: status %d: wrong answer", r.Method, r.Target, rec.code)
	}

	a0 := heapAllocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		call(i)
	}
	plain := time.Since(t0)
	allocs := float64(heapAllocs()-a0) / float64(n)
	check(n - 1)

	spans := make([]float64, n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		sp := tr.begin("serve."+kind, i, -1)
		call(i)
		spans[i] = float64(tr.end(sp).Nanoseconds()) / 1e3
		check(i)
	}
	traced := time.Since(t0)
	sort.Float64s(spans)
	return spans, plain, traced, allocs, nil
}

// traceDaemon is the daemon side of a traced run: admission, a
// closed-loop loopback leg measuring the runtime (GC) and the client's
// CPU share, the direct-to-handler leg per endpoint, and the routing
// reads and what-if derivations under the handlers, timed directly.
func traceDaemon(o options, fabrics []fabricSpec, shape daemonShape) (map[string]metric, tally, error) {
	var t tally
	srv, reqs, _, admissionMs, err := daemonSetup(o, fabrics, shape)
	if err != nil {
		return nil, t, err
	}
	loop, err := loopback(srv.Handler(), reqs, o.workers, shape.warmup, shape.loopSecs(o), true)
	t.add(loop.t)
	if err != nil {
		return nil, t, err
	}
	kreq := float64(loop.requests) / 1e3

	tr := newTracer()
	byKind := map[string][]*request{}
	for _, r := range reqs {
		byKind[r.Kind] = append(byKind[r.Kind], r)
	}
	ms := map[string]metric{
		"serve.admission_ms":           {admissionMs, "ms"},
		"runtime.gc_per_kreq":          {float64(loop.gcCycles) / kreq, "count"},
		"runtime.gc_pause_ms_per_kreq": {float64(loop.gcPauseNs) / 1e6 / kreq, "ms"},
		"runtime.gc_cycles":            {float64(loop.gcCycles), "count"},
		"runtime.loop_requests":        {float64(loop.requests), "count"},
		"harness.client_cpu_frac":      {loop.clientCPU.Seconds() / loop.procCPU.Seconds(), "ratio"},
	}
	var plainSum, tracedSum time.Duration
	for _, kind := range []string{"nexthop", "paths", "whatif", "healthz"} {
		rs := byKind[kind]
		if len(rs) == 0 {
			return nil, t, fmt.Errorf("request mix has no %s requests", kind)
		}
		spans, plain, traced, allocs, err := directLeg(srv.Handler(), tr, kind, rs, shape.direct[kind], &t)
		if err != nil {
			return nil, t, err
		}
		plainSum += plain
		tracedSum += traced
		if kind == "healthz" {
			continue
		}
		ms["serve.handler_us."+kind] = metric{quantile(spans, 0.5), "us"}
		ms["serve.handler_samples."+kind] = metric{float64(len(spans)), "count"}
		ms["serve.allocs_per_req."+kind] = metric{allocs, "count"}
	}
	ms["harness.span_overhead"] = metric{tracedSum.Seconds()/plainSum.Seconds() - 1, "ratio"}
	if err := writeJSONFile(o, "daemon-spans", tr.spans); err != nil {
		return nil, t, err
	}

	// Fabric lookup: the resident-cache hit under every request.
	spec, seed := fabricCell(fabrics[0])
	const lookups = 20000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		if _, _, err := srv.Fabrics().Get(spec, seed); err != nil {
			return nil, t, err
		}
	}
	ms["serve.fabric_lookup_us"] = metric{float64(time.Since(t0).Nanoseconds()) / 1e3 / lookups, "us"}

	// Table reads and what-if derivations on the resident fabrics.
	fabs := make([]*core.Fabric, len(fabrics))
	for i, fs := range fabrics {
		spec, seed := fabricCell(fs)
		_, fab, err := srv.Fabrics().Get(spec, seed)
		if err != nil {
			return nil, t, err
		}
		fabs[i] = fab
	}
	var reads int
	var sink int
	t0 = time.Now()
	for reads < 300000 {
		for _, r := range byKind["nexthop"] {
			q, fwd := r.triples[0], fabs[r.fabric].Fwd
			sink += int(fwd.Next(q.Layer, q.Src, q.Dst)) + len(fwd.Candidates(q.Layer, q.Src, q.Dst)) + fwd.PathLen(q.Layer, q.Src, q.Dst)
			reads++
		}
	}
	ms["routing.read_ns"] = metric{float64(time.Since(t0).Nanoseconds()) / float64(reads), "ns"}
	runtime.KeepAlive(sink)
	var derive time.Duration
	var sharedFrac float64
	whatifs := byKind["whatif"]
	for _, r := range whatifs {
		fwd := fabs[r.fabric].Fwd
		t0 := time.Now()
		derived := fwd.WithoutEdges(r.edges)
		derive += time.Since(t0)
		sharedFrac += float64(derived.Engine().Stat().TablesBuilt) / float64(fwd.Engine().Stat().TablesBuilt)
	}
	ms["routing.whatif_derive_us"] = metric{float64(derive.Nanoseconds()) / 1e3 / float64(len(whatifs)), "us"}
	ms["routing.whatif_shared_frac"] = metric{sharedFrac / float64(len(whatifs)), "ratio"}
	return ms, t, nil
}

// tracedDaemon is daemon-mix's --trace 1 run: the daemon side at full
// size, plus the layer-by-layer replay of one small cell per transport on
// the first resident fabric, which gives the build layers under
// admission (topo, layers, routing) and the simulator's per-event costs.
func tracedDaemon(o options) (map[string]metric, tally, error) {
	fabrics := daemonFabrics(o.seed)
	ms, t, err := traceDaemon(o, fabrics, fullDaemon)
	if err != nil {
		return nil, t, err
	}
	base, seed := fabricCell(fabrics[0])
	cells := probeCells(base, nil)
	sm, st, err := traceSweep(o, cells, seed)
	t.add(st)
	if err != nil {
		return nil, t, err
	}
	for k, v := range sm {
		ms[k] = v
	}
	return ms, t, nil
}
