package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Sweep cells use only deterministic patterns (adversarial, stencil),
// fixed flow sizes, synchronized starts, one replica and no failures, so
// the traced replay below is exact: it draws nothing the scenario engine
// draws, and its summaries must equal RunSpecs' bit for bit.

// horizonMs is every sweep cell's simulated horizon.
const horizonMs = 8000

// sizeGrid is n flow sizes spanning 20 KB to 2 MB, heavy-tailed like a
// data-centre flow mix: the log of the size grows with the cube of the
// rank, so most sizes are small and a few are large.
func sizeGrid(n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		u := float64(i) / float64(n-1)
		g[i] = 20e3 * math.Pow(100, u*u*u)
	}
	return g
}

// drawSize draws a size log-uniformly within ±4% of centre.
func drawSize(rng *rand.Rand, centre float64) int64 {
	return int64(centre * math.Exp((rng.Float64()*2-1)*0.04))
}

// tcpCollideCells is the fig14/fig17-shaped matrix: quick-scale SF, DF,
// XP and FT3 × {tcp, dctcp, mptcp} × {ecmp n=1, fatpaths n=4 ρ=0.6}. Each
// of the 24 cells takes its own point of a 24-point heavy-tailed size grid,
// assigned so that every topology gets one size from each sixth of it
// (the largest to SF, which has the fewest endpoints, so no single cell
// outlasts the rest of a pass), and the seed draws the size within ±4% of
// that point: the seed moves every size while the total work stays nearly
// equal across seeds. The eight smallest cells run the stencil pattern,
// the others the adversarial one.
func tcpCollideCells(seed int64) []scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	topos := []scenario.Topology{{Kind: "SF", Param: 5}, {Kind: "DF", Param: 3}, {Kind: "XP", Param: 8}, {Kind: "FT3", Param: 4}}
	grid := sizeGrid(6 * len(topos))
	var cells []scenario.Spec
	for ti, tp := range topos {
		j := 0
		for _, tr := range []string{"tcp", "dctcp", "mptcp"} {
			for _, fatpaths := range []bool{false, true} {
				g := (j+ti)%6*len(topos) + len(topos) - 1 - ti
				j++
				s := scenario.Spec{
					Topology: tp, Transport: tr, Routing: "ecmp", Layers: 1,
					Pattern:   scenario.Pattern{Kind: "adversarial"},
					FlowSize:  scenario.FlowSize{Kind: "fixed", Bytes: drawSize(rng, grid[g])},
					HorizonMs: horizonMs,
				}
				if g < 8 {
					s.Pattern.Kind = "stencil"
				}
				if fatpaths {
					s.Routing, s.Layers, s.Rho = "fatpaths", 4, 0.6
				}
				cells = append(cells, s)
			}
		}
	}
	// Longest first, so the two workers finish together.
	cost := func(s scenario.Spec) float64 {
		if s.Pattern.Kind == "stencil" {
			return 4 * float64(s.FlowSize.Bytes)
		}
		return float64(s.FlowSize.Bytes)
	}
	sort.SliceStable(cells, func(a, b int) bool { return cost(cells[a]) > cost(cells[b]) })
	return cells
}

// ndpFabricCells builds many distinct medium fabrics — SF q=7/11, DF p=4,
// HX S=5, XP k'=12, JF (SF q=7 equivalent), FT3 m=6, each by random and by
// min-interference layer construction — and runs two short, light NDP
// cells (fatpaths and minimal) on each. All fatpaths cells come first, so
// every fabric is built before its minimal cell needs it.
func ndpFabricCells(seed int64) []scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	// Listed by descending build cost.
	topos := []scenario.Topology{
		{Kind: "SF", Param: 11}, {Kind: "DF", Param: 4}, {Kind: "FT3", Param: 6},
		{Kind: "XP", Param: 12}, {Kind: "HX", Param: 5}, {Kind: "SF", Param: 7}, {Kind: "JF", Param: 7},
	}
	var fabrics []scenario.Spec
	for _, c := range []string{"min-interference", "random"} {
		for _, tp := range topos {
			fabrics = append(fabrics, scenario.Spec{
				Topology: tp, Construction: c, Transport: "ndp",
				Pattern:   scenario.Pattern{Kind: "adversarial"},
				FlowSize:  scenario.FlowSize{Kind: "fixed", Bytes: 16e3 + rng.Int63n(16e3)},
				HorizonMs: horizonMs,
			})
		}
	}
	var cells []scenario.Spec
	for _, routing := range []string{"fatpaths", "minimal"} {
		for _, f := range fabrics {
			f.Routing = routing
			cells = append(cells, f)
		}
	}
	return cells
}

// sweepInputs generates and validates a sweep's cell list: the work
// setup_s times.
func sweepInputs(gen func(int64) []scenario.Spec, seed int64) ([]scenario.Spec, error) {
	cells := gen(seed)
	for i, s := range cells {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return cells, nil
}

// setupSweep generates the inputs several times and reports the median
// generation time in seconds.
func setupSweep(gen func(int64) []scenario.Spec, seed int64) ([]scenario.Spec, float64, error) {
	const reps = 25
	var cells []scenario.Spec
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		c, err := sweepInputs(gen, seed)
		times[i] = time.Since(t0).Seconds()
		if err != nil {
			return nil, 0, err
		}
		cells = c
	}
	return cells, median(times), nil
}

// patternFor compiles a cell's (deterministic) traffic pattern.
func patternFor(s scenario.Spec, t *topo.Topology) (traffic.Pattern, error) {
	switch s.Pattern.Kind {
	case "adversarial":
		return traffic.AdversarialOffDiagonal(t), nil
	case "stencil":
		return traffic.DefaultStencil(t.N()), nil
	}
	return traffic.Pattern{}, fmt.Errorf("pattern %q is not deterministic", s.Pattern.Kind)
}

// simConfig maps a cell's transport and routing names onto netsim.
func simConfig(s scenario.Spec) (netsim.Config, error) {
	var cfg netsim.Config
	switch s.Transport {
	case "ndp":
		cfg = netsim.NDPDefaults()
	case "tcp":
		cfg = netsim.TCPDefaults(netsim.TransportTCP)
	case "dctcp":
		cfg = netsim.TCPDefaults(netsim.TransportDCTCP)
	case "mptcp":
		cfg = netsim.TCPDefaults(netsim.TransportMPTCP)
	default:
		return cfg, fmt.Errorf("transport %q", s.Transport)
	}
	switch s.Routing {
	case "fatpaths":
		cfg.LB = netsim.LBFatPaths
	case "ecmp":
		cfg.LB = netsim.LBECMP
	case "minimal":
		cfg.LB = netsim.LBMinimalLayer
	default:
		return cfg, fmt.Errorf("routing %q", s.Routing)
	}
	return cfg, nil
}

// expectedFlows computes every cell's generated flow count: the number of
// flows its pattern has on its topology.
func expectedFlows(cells []scenario.Spec, seed int64) ([]int, error) {
	counts := map[string]int{}
	out := make([]int, len(cells))
	for i, s := range cells {
		k := fmt.Sprintf("%+v|%s", s.Topology, s.Pattern.Kind)
		n, ok := counts[k]
		if !ok {
			t, err := scenario.BuildTopology(s, seed)
			if err != nil {
				return nil, err
			}
			p, err := patternFor(s, t)
			if err != nil {
				return nil, err
			}
			n = len(p.Flows)
			counts[k] = n
		}
		out[i] = n
	}
	return out, nil
}

// runPass runs the cell list once through RunSpecs.
func runPass(cells []scenario.Spec, seed int64, workers int) ([]scenario.CellResult, error) {
	return scenario.RunSpecs(cells, scenario.RunOptions{Seed: seed, Parallelism: workers})
}

// workerUtil runs the cell list once through RunSpecs with telemetry on
// and returns the results and the worker utilization of its run_end
// record.
func workerUtil(cells []scenario.Spec, seed int64, workers int) ([]scenario.CellResult, float64, error) {
	var buf bytes.Buffer
	res, err := scenario.RunSpecs(cells, scenario.RunOptions{
		Seed: seed, Parallelism: workers, Name: "perfbench", Telemetry: obs.NewTelemetry(&buf),
	})
	if err != nil {
		return nil, 0, err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec struct {
			Type       string  `json:"type"`
			WorkerUtil float64 `json:"workerUtil"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, 0, fmt.Errorf("telemetry: %w", err)
		}
		if rec.Type == "run_end" {
			return res, rec.WorkerUtil, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return nil, 0, fmt.Errorf("telemetry: no run_end record")
}

// checkPass verifies one pass: one result per cell, each with the
// generated flow count, and (after the first pass) equal to the first
// pass's result for the same cell.
func checkPass(t *tally, cells []scenario.Spec, res, first []scenario.CellResult, flows []int) {
	for i := range cells {
		if i >= len(res) {
			t.check(false, "cell %d: no result", i)
			continue
		}
		ok := res[i].Flows == flows[i]
		if !ok {
			t.check(false, "cell %d (%s): %d flows, generated %d", i, cells[i].Key(), res[i].Flows, flows[i])
			continue
		}
		if first != nil && !sameCell(res[i], first[i]) {
			t.check(false, "cell %d (%s): result differs between passes", i, cells[i].Key())
			continue
		}
		t.check(true, "")
	}
}

// sameCell compares two cell results bit for bit.
func sameCell(a, b scenario.CellResult) bool {
	return a.Flows == b.Flows && a.Drops == b.Drops && a.Trims == b.Trims &&
		sameFloat(a.Completed, b.Completed) &&
		sameSummary(a.FCT, b.FCT) && sameSummary(a.Throughput, b.Throughput)
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSummary(a, b stats.Summary) bool {
	return a.N == b.N && sameFloat(a.Mean, b.Mean) && sameFloat(a.P01, b.P01) &&
		sameFloat(a.P10, b.P10) && sameFloat(a.P50, b.P50) && sameFloat(a.P90, b.P90) &&
		sameFloat(a.P99, b.P99) && sameFloat(a.P999, b.P999)
}

// plainSweep measures a sweep end to end: it runs the fixed cell list
// through RunSpecs in passes until the time is spent (at least one pass).
// Throughput is cells over the summed pass time; latency is that of the
// sweep a user waits for, one pass, as percentiles over the passes.
// Single cells are not timed: a cell's wall time depends on what the
// other workers run beside it, which shifts from run to run.
func plainSweep(gen func(int64) []scenario.Spec) func(o options) (map[string]metric, tally, error) {
	return func(o options) (map[string]metric, tally, error) {
		var t tally
		cells, setup, err := setupSweep(gen, o.seed)
		if err != nil {
			return nil, t, err
		}
		if err := writeJSONFile(o, "inputs", cells); err != nil {
			return nil, t, err
		}
		var secs []float64
		var passes [][]scenario.CellResult
		start := time.Now()
		for {
			t0 := time.Now()
			res, err := runPass(cells, o.seed, o.workers)
			if err != nil {
				return nil, t, err
			}
			dt := time.Since(t0).Seconds()
			secs = append(secs, dt)
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %d cells in %.3fs\n", len(secs), len(cells), dt)
			passes = append(passes, res)
			if time.Since(start).Seconds()+dt > o.seconds {
				break
			}
		}
		rss, err := maxRSSMB()
		if err != nil {
			return nil, t, err
		}
		flows, err := expectedFlows(cells, o.seed)
		if err != nil {
			return nil, t, err
		}
		for i, res := range passes {
			var first []scenario.CellResult
			if i > 0 {
				first = passes[0]
			}
			checkPass(&t, cells, res, first, flows)
		}
		var total float64
		for _, s := range secs {
			total += s
		}
		sort.Float64s(secs)
		return map[string]metric{
			"ops_per_s":  {float64(len(cells)*len(passes)) / total, "1/s"},
			"op_p50_us":  {median(secs) * 1e6, "us"},
			"op_p99_us":  {quantile(secs, 0.99) * 1e6, "us"},
			"setup_s":    {setup, "s"},
			"max_rss_mb": {rss, "MiB"},
		}, t, nil
	}
}

// counts are the exact outputs of a replay: any speed-only change must
// leave them unchanged, and two replays at one seed must agree on them.
type counts struct {
	Events         int64 `json:"events"`
	QueueHighWater int   `json:"queueHighWater"`
	Retransmits    int64 `json:"retransmits"`
	Drops          int64 `json:"drops"`
	Trims          int64 `json:"trims"`
	FlowsCompleted int64 `json:"flowsCompleted"`
	TablesBuilt    int   `json:"tablesBuilt"`
	CSREntries     int64 `json:"csrEntries"`
}

// cellReplay is one replayed cell's outcome.
type cellReplay struct {
	flows     int
	fct, thr  stats.Summary
	drops     int64
	trims     int64
	events    int64
	hw        int
	retx      int64
	completed int64
	simNs     int64
	allocs    uint64
	transport string
	replayErr error
}

// fabricEntry is one fabric of a replay, built once under its once.
type fabricEntry struct {
	once sync.Once
	fab  *core.Fabric
	err  error
	stat counts
}

// replay re-executes the cells layer by layer from this file —
// BuildTopology → BuildFabricOn → BuildAll(1) → the simulation →
// summaries — with a span around each call. Fabrics are shared by fabric
// key, as RunSpecs shares them.
type replay struct {
	seed    int64
	tr      *tracer
	mu      sync.Mutex
	topos   map[string]*topoEntry
	fabrics map[string]*fabricEntry
}

type topoEntry struct {
	once sync.Once
	t    *topo.Topology
	err  error
}

func newReplay(seed int64, tr *tracer) *replay {
	return &replay{seed: seed, tr: tr, topos: map[string]*topoEntry{}, fabrics: map[string]*fabricEntry{}}
}

func (r *replay) fabric(s scenario.Spec, op, parent int) (*topo.Topology, *fabricEntry) {
	r.mu.Lock()
	tk := fmt.Sprintf("%+v", s.Topology)
	te, ok := r.topos[tk]
	if !ok {
		te = &topoEntry{}
		r.topos[tk] = te
	}
	fk := s.FabricKey(r.seed)
	fe, ok := r.fabrics[fk]
	if !ok {
		fe = &fabricEntry{}
		r.fabrics[fk] = fe
	}
	r.mu.Unlock()
	te.once.Do(func() {
		sp := r.tr.begin("topo.build", op, parent)
		te.t, te.err = scenario.BuildTopology(s, r.seed)
		r.tr.end(sp)
	})
	if te.err != nil {
		fe.once.Do(func() { fe.err = te.err })
		return nil, fe
	}
	fe.once.Do(func() {
		sp := r.tr.begin("layers.build", op, parent)
		fe.fab, fe.err = scenario.BuildFabricOn(s, te.t, r.seed, nil)
		r.tr.end(sp)
		if fe.err != nil {
			return
		}
		sp = r.tr.begin("routing.build", op, parent)
		fe.fab.Fwd.BuildAll(1)
		r.tr.end(sp)
		st := fe.fab.Fwd.Engine().Stat()
		fe.stat = counts{TablesBuilt: st.TablesBuilt, CSREntries: st.CandEntries}
	})
	return te.t, fe
}

// cell replays one cell.
func (r *replay) cell(s scenario.Spec, op int) cellReplay {
	out := cellReplay{transport: s.Transport}
	root := r.tr.begin("cell", op, -1)
	defer r.tr.end(root)
	t, fe := r.fabric(s, op, root)
	if fe.err != nil {
		out.replayErr = fe.err
		return out
	}
	pat, err := patternFor(s, t)
	if err != nil {
		out.replayErr = err
		return out
	}
	cfg, err := simConfig(s)
	if err != nil {
		out.replayErr = err
		return out
	}
	sp := r.tr.begin("netsim.run", op, root)
	t0 := time.Now()
	a0 := heapAllocs()
	sim := fe.fab.NewSimulation(cfg)
	for _, fl := range pat.Flows {
		sim.AddFlow(netsim.FlowSpec{Src: fl.Src, Dst: fl.Dst, Bytes: s.FlowSize.Bytes})
	}
	frs := sim.Run(netsim.Time(s.HorizonMs * 1e6))
	out.allocs = heapAllocs() - a0
	out.simNs = time.Since(t0).Nanoseconds()
	r.tr.end(sp)
	out.events = sim.Eng.Executed()
	out.hw = sim.Eng.QueueHighWater()
	out.drops = sim.Net.TotalDrops()
	out.trims = sim.Net.TotalTrims()
	for _, fr := range frs {
		out.retx += fr.Retx
		if fr.Done {
			out.completed++
		}
	}
	out.flows = len(frs)
	sp = r.tr.begin("stats.summarize", op, root)
	out.fct = netsim.SummarizeFCT(frs)
	out.thr = netsim.SummarizeThroughput(frs)
	r.tr.end(sp)
	return out
}

// run replays every cell on the given number of workers.
func (r *replay) run(cells []scenario.Spec, workers int) []cellReplay {
	out := make([]cellReplay, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				out[i] = r.cell(cells[i], i)
			}
		}()
	}
	wg.Wait()
	return out
}

// exact totals a replay's exact counts.
func (r *replay) exact(reps []cellReplay) counts {
	var c counts
	for _, x := range reps {
		c.Events += x.events
		if x.hw > c.QueueHighWater {
			c.QueueHighWater = x.hw
		}
		c.Retransmits += x.retx
		c.Drops += x.drops
		c.Trims += x.trims
		c.FlowsCompleted += x.completed
	}
	keys := make([]string, 0, len(r.fabrics))
	for k := range r.fabrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.TablesBuilt += r.fabrics[k].stat.TablesBuilt
		c.CSREntries += r.fabrics[k].stat.CSREntries
	}
	return c
}

// probeCells adds one small cell per transport the workload's own cells
// lack, on the fabric of base, so every traced run reports ns/event for
// every transport.
func probeCells(base scenario.Spec, cells []scenario.Spec) []scenario.Spec {
	have := map[string]bool{}
	for _, s := range cells {
		have[s.Transport] = true
	}
	var out []scenario.Spec
	for _, tr := range []string{"tcp", "dctcp", "mptcp", "ndp"} {
		if have[tr] {
			continue
		}
		p := base
		p.Transport, p.Routing = tr, "fatpaths"
		p.Pattern = scenario.Pattern{Kind: "adversarial"}
		p.FlowSize = scenario.FlowSize{Kind: "fixed", Bytes: 64e3}
		p.HorizonMs = horizonMs
		out = append(out, p)
	}
	return out
}

// traceSweep runs the cells once through RunSpecs (the reference), then
// replays them serially with spans (the per-layer numbers), then replays
// them again on all workers (the determinism canary). It returns the
// per-layer metrics and checks that each replayed cell equals RunSpecs'
// result and that both replays agree on every exact count.
func traceSweep(o options, cells []scenario.Spec, seed int64) (map[string]metric, tally, error) {
	var t tally
	if err := writeJSONFile(o, "cells", cells); err != nil {
		return nil, t, err
	}
	c0 := cpuTime(syscall.RUSAGE_SELF)
	ref, util, err := workerUtil(cells, seed, o.workers)
	if err != nil {
		return nil, t, err
	}
	plainCPU := cpuTime(syscall.RUSAGE_SELF) - c0

	tr := newTracer()
	rp := newReplay(seed, tr)
	c0 = cpuTime(syscall.RUSAGE_SELF)
	reps := rp.run(cells, 1)
	replayCPU := cpuTime(syscall.RUSAGE_SELF) - c0
	exact := rp.exact(reps)

	canary := newReplay(seed, nil)
	exact2 := canary.exact(canary.run(cells, o.workers))
	t.check(exact == exact2, "determinism canary: exact counts differ between two replays: %+v vs %+v", exact, exact2)

	checkReplay(&t, cells, ref, reps)
	if err := writeJSONFile(o, "sweep-spans", tr.spans); err != nil {
		return nil, t, err
	}

	tot := tr.totals()
	nsPer := map[string][2]float64{}
	var allocs uint64
	for _, x := range reps {
		v := nsPer[x.transport]
		nsPer[x.transport] = [2]float64{v[0] + float64(x.simNs), v[1] + float64(x.events)}
		allocs += x.allocs
	}
	ms := map[string]metric{
		"topo.build_ms":            {tot["topo.build"], "ms"},
		"layers.build_ms":          {tot["layers.build"], "ms"},
		"routing.build_ms":         {tot["routing.build"], "ms"},
		"routing.us_per_table":     {tot["routing.build"] * 1e3 / float64(exact.TablesBuilt), "us"},
		"routing.tables_built":     {float64(exact.TablesBuilt), "count"},
		"routing.csr_entries":      {float64(exact.CSREntries), "count"},
		"netsim.run_ms":            {tot["netsim.run"], "ms"},
		"netsim.events":            {float64(exact.Events), "count"},
		"netsim.queue_highwater":   {float64(exact.QueueHighWater), "count"},
		"netsim.allocs_per_event":  {float64(allocs) / float64(exact.Events), "count"},
		"netsim.retransmits":       {float64(exact.Retransmits), "count"},
		"netsim.drops":             {float64(exact.Drops), "count"},
		"netsim.trims":             {float64(exact.Trims), "count"},
		"netsim.flows_completed":   {float64(exact.FlowsCompleted), "count"},
		"stats.summarize_ms":       {tot["stats.summarize"], "ms"},
		"scenario.worker_util":     {util, "ratio"},
		"harness.replay_overhead":  {replayCPU.Seconds()/plainCPU.Seconds() - 1, "ratio"},
		"harness.replay_layer_sum": {tot["topo.build"] + tot["layers.build"] + tot["routing.build"] + tot["netsim.run"] + tot["stats.summarize"], "ms"},
	}
	for _, tp := range []string{"tcp", "dctcp", "mptcp", "ndp"} {
		v := nsPer[tp]
		ms["netsim.ns_per_event."+tp] = metric{v[0] / v[1], "ns"}
	}
	return ms, t, nil
}

// checkReplay counts each replayed cell as failed unless it equals
// RunSpecs' result: flow count, drops, trims and both summaries, bit for
// bit.
func checkReplay(t *tally, cells []scenario.Spec, ref []scenario.CellResult, reps []cellReplay) {
	for i, x := range reps {
		switch {
		case x.replayErr != nil:
			t.check(false, "cell %d: replay: %v", i, x.replayErr)
		case x.flows != ref[i].Flows || x.drops != ref[i].Drops || x.trims != ref[i].Trims ||
			!sameSummary(x.fct, ref[i].FCT) || !sameSummary(x.thr, ref[i].Throughput):
			t.check(false, "cell %d (%s): traced replay differs from RunSpecs", i, cells[i].Key())
		default:
			t.check(true, "")
		}
	}
}

// tracedSweep is a sweep workload's --trace 1 run: the layer-by-layer
// replay of its cells (plus one probe cell per missing transport), and a
// short served probe over its first fabric for the serve-side layers.
func tracedSweep(gen func(int64) []scenario.Spec) func(o options) (map[string]metric, tally, error) {
	return func(o options) (map[string]metric, tally, error) {
		cells, err := sweepInputs(gen, o.seed)
		if err != nil {
			return nil, tally{}, err
		}
		cells = append(cells, probeCells(cells[len(cells)-1], cells)...)
		ms, t, err := traceSweep(o, cells, o.seed)
		if err != nil {
			return nil, t, err
		}
		sel := selectorOf(cells[len(cells)-1], o.seed)
		dm, dt, err := traceDaemon(o, []fabricSpec{sel}, probeDaemon)
		t.add(dt)
		if err != nil {
			return nil, t, err
		}
		for k, v := range dm {
			ms[k] = v
		}
		return ms, t, nil
	}
}
