package experiments

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// This file implements the packet-level simulation experiments of §VII and
// Appendix D: Fig 2 (randomized workload throughput), Fig 11 (skewed
// adversarial), Fig 12 (n/ρ sweep, htsim mode), Fig 13 (largest feasible
// networks), Fig 14 (TCP: FatPaths vs ECMP vs LetFlow), Fig 15 (FCT
// distribution vs queueing model), Fig 16 (ρ sweep, TCP), Fig 17 (stencil +
// barrier), Fig 20/21 (λ calibration on crossbar/fat tree), plus the
// transport/construction/randomization ablations (see README.md's
// experiment table).
//
// Every simulation runs through the scenario engine (internal/scenario):
// a runner states its cells — a declarative Matrix, or an explicit spec
// list where the table's row order is not the matrix nesting order — the
// engine seeds them from canonical resource keys and executes them over
// the parallel runtime with fabric dedup, result cache, and telemetry, and
// the runner only reformats CellResults into the figure's table shape.

func init() {
	register("fig2", "Throughput/flow vs flow size: low-diameter+FatPaths vs FT+NDP (randomized workload)", runFig2)
	register("fig11", "Skewed adversarial traffic: FatPaths vs minimal NDP baseline", runFig11)
	register("fig12", "Effect of layer count n and sparsity rho on long-flow FCT (htsim mode)", runFig12)
	register("fig13", "Larger networks: SF vs SF-JF vs DF throughput and FCT tails", runFig13)
	register("fig14", "TCP: FatPaths (rho=0.6, rho=1) vs ECMP vs LetFlow", runFig14)
	register("fig15", "Long-flow FCT distribution on SF: queueing model vs FatPaths vs ECMP", runFig15)
	register("fig16", "Impact of rho on long-flow FCT (TCP, n=4)", runFig16)
	register("fig17", "Stencil+barrier completion time speedups (TCP)", runFig17)
	register("fig20", "Long-flow FCT vs arrival rate on a crossbar (TCP)", runFig20)
	register("fig21", "Influence of lambda on baseline NDP: crossbar vs fat tree", runFig21)
	register("abl-transport", "Ablation: purified transport vs TCP tail-drop on identical layers", runAblTransport)
	register("abl-construction", "Ablation: random vs min-interference layer construction", runAblConstruction)
	register("abl-randomization", "Ablation: workload randomization on vs off", runAblRandomization)
}

// scenTopo maps a figure's topology family tag onto the scenario topology
// spec of the same size at the current scale.
func scenTopo(o Options, kind string) scenario.Topology {
	switch kind {
	case "SF":
		return scenario.Topology{Kind: "SF", Param: pick(o, 5, 11)}
	case "JF":
		return scenario.Topology{Kind: "JF", Param: pick(o, 5, 11)}
	case "DF":
		return scenario.Topology{Kind: "DF", Param: pick(o, 3, 4)}
	case "HX":
		return scenario.Topology{Kind: "HX", Param: pick(o, 4, 7)}
	case "XP":
		return scenario.Topology{Kind: "XP", Param: pick(o, 8, 16)}
	case "FT":
		return scenario.Topology{Kind: "FT3", Param: pick(o, 4, 8)}
	}
	panic("unknown suite kind " + kind)
}

func scenTopos(o Options, kinds ...string) []scenario.Topology {
	out := make([]scenario.Topology, len(kinds))
	for i, k := range kinds {
		out[i] = scenTopo(o, k)
	}
	return out
}

// suiteTag is the table label of a scenTopo topology: its family tag.
func suiteTag(ts scenario.Topology) string {
	if ts.Kind == "FT3" {
		return "FT"
	}
	return ts.Kind
}

// mustExpand concatenates the cells of the given matrices in order. The
// runners' matrices are static, so an expansion error is a programming
// error.
func mustExpand(ms ...*scenario.Matrix) []scenario.Spec {
	var cells []scenario.Spec
	for _, m := range ms {
		cs, _, err := m.Expand()
		if err != nil {
			panic(err)
		}
		cells = append(cells, cs...)
	}
	return cells
}

// runSpecs executes the cells as one batch over the parallel runtime with
// the experiment's seed, progress reporting, instrumentation, and cache.
func runSpecs(o Options, cells []scenario.Spec) ([]scenario.CellResult, error) {
	return scenario.RunSpecs(cells, scenario.RunOptions{
		Seed:        o.Seed,
		Parallelism: o.workers(),
		Shards:      o.Shards,
		Progress:    o.Progress,
		Name:        o.RunName,
		Obs:         o.Obs,
		Telemetry:   o.Telemetry,
		Tracer:      o.Tracer,
		CacheDir:    o.CacheDir,
	})
}

func scenSizes(o Options) []scenario.FlowSize {
	sizes := []int64{32 << 10, 128 << 10, 512 << 10, 2 << 20}
	if o.Quick {
		sizes = []int64{32 << 10, 256 << 10, 2 << 20}
	}
	var out []scenario.FlowSize
	for _, b := range sizes {
		out = append(out, scenario.FlowSize{Bytes: b})
	}
	return out
}

// tcpCells expands a base cell into the four §VII-C TCP series of Figs 14
// and 17, in legend order: ECMP and LetFlow on one dense layer, FatPaths
// on n=4 layers at ρ=0.6 and ρ=1.
func tcpCells(base scenario.Spec) []scenario.Spec {
	var out []scenario.Spec
	for _, s := range []struct {
		routing string
		layers  int
		rho     float64
	}{{"ecmp", 1, 1}, {"letflow", 1, 1}, {"fatpaths", 4, 0.6}, {"fatpaths", 4, 1}} {
		c := base
		c.Routing, c.Layers, c.Rho = s.routing, s.layers, s.rho
		out = append(out, c)
	}
	return out
}

// seriesName is the legend label of a tcpCells cell.
func seriesName(s scenario.Spec) string {
	switch s.Routing {
	case "ecmp":
		return "ECMP"
	case "letflow":
		return "LetFlow"
	}
	return fmt.Sprintf("FatPaths(%.1f)", s.Rho)
}

// speedup is base/x, or 0 when x is not positive.
func speedup(base, x float64) float64 {
	if x > 0 {
		return base / x
	}
	return 0
}

func runFig2(o Options) (*stats.Table, error) {
	// Low-diameter topologies run FatPaths; the fat tree runs the plain NDP
	// design (per-packet spraying over minimal paths, no layers). Both
	// matrices share the randomized-uniform workload axes.
	base := scenario.Spec{
		Pattern:   scenario.Pattern{Kind: "uniform", Randomize: true},
		Load:      300,
		HorizonMs: 8000,
	}
	lowDiam := &scenario.Matrix{
		Name: "fig2-fatpaths",
		Base: base,
		Axes: scenario.Axes{
			Topologies: scenTopos(o, "SF", "XP", "HX", "DF"),
			FlowSizes:  scenSizes(o),
		},
	}
	ftBase := base
	ftBase.Topology = scenTopo(o, "FT")
	ftBase.Routing = "spray"
	ftBase.Layers = 1
	ftBase.Rho = 1
	ft := &scenario.Matrix{
		Name: "fig2-ndp-ft",
		Base: ftBase,
		Axes: scenario.Axes{FlowSizes: scenSizes(o)},
	}
	results, err := runSpecs(o, mustExpand(lowDiam, ft))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 2: throughput per flow [MiB/s], randomized workload, NDP-style transport",
		Headers: []string{"topology", "scheme", "flow KiB", "mean", "1% tail", "completed"},
	}
	for _, r := range results {
		scheme := "FatPaths"
		if r.Spec.Routing == "spray" {
			scheme = "NDP"
		}
		tab.AddRowf(r.TopoName, scheme, r.Spec.FlowSize.Bytes>>10,
			r.Throughput.Mean, r.Throughput.P01, fmtPct(r.Completed))
	}
	return tab, nil
}

func runFig11(o Options) (*stats.Table, error) {
	// One matrix over (topology × scheme × size). The two schemes need
	// different layer configurations, so the layers/rho axes carry both and
	// skip constraints cut the cross product down to the two real series:
	// FatPaths at the topology default (layers=0, rho=0) and the minimal
	// NDP baseline on a single dense layer (layers=1, rho=1).
	m := &scenario.Matrix{
		Name: "fig11",
		Base: scenario.Spec{
			Pattern:   scenario.Pattern{Kind: "adversarial"},
			Load:      300,
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{
			Topologies: scenTopos(o, "SF", "XP", "HX", "DF", "FT"),
			Routings:   []string{"fatpaths", "spray"},
			Layers:     []int{0, 1},
			Rhos:       []float64{0, 1},
			FlowSizes:  scenSizes(o),
		},
		Skip: []scenario.Constraint{
			{When: map[string]string{"routing": "fatpaths", "layers": "1"}},
			{When: map[string]string{"routing": "fatpaths", "rho": "1"}},
			{When: map[string]string{"routing": "spray", "layers": "0"}},
			{When: map[string]string{"routing": "spray", "rho": "0"}},
		},
	}
	results, err := runSpecs(o, mustExpand(m))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 11: skewed adversarial (non-randomized) traffic, NDP-style transport",
		Headers: []string{"topology", "scheme", "flow KiB", "mean MiB/s", "1% tail", "completed"},
	}
	for _, r := range results {
		scheme := "FatPaths"
		if r.Spec.Routing == "spray" {
			scheme = "NDP-minimal"
		}
		tab.AddRowf(r.TopoName, scheme, r.Spec.FlowSize.Bytes>>10,
			r.Throughput.Mean, r.Throughput.P01, fmtPct(r.Completed))
	}
	return tab, nil
}

func runFig12(o Options) (*stats.Table, error) {
	ns := []int{2, 5, 9}
	if !o.Quick {
		ns = []int{2, 5, 9, 17, 33}
	}
	// Every (n, rho) cell of one topology faces the same workload: the
	// engine derives pattern and arrivals from the workload axes alone.
	results, err := runSpecs(o, mustExpand(&scenario.Matrix{
		Name: "fig12",
		Base: scenario.Spec{
			Pattern:   scenario.Pattern{Kind: "permutation", Randomize: true},
			FlowSize:  scenario.FlowSize{Bytes: 1 << 20},
			Load:      300,
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{
			Topologies: []scenario.Topology{
				{Kind: "Clique", Param: pick(o, 15, 40)}, scenTopo(o, "SF"), scenTopo(o, "DF"),
			},
			Layers: ns,
			Rhos:   []float64{0.5, 0.7, 0.8},
		},
	}))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 12: effect of n and rho on 1MiB-flow FCT [ms] (NDP mode)",
		Headers: []string{"topology", "n", "rho", "mean", "p10", "p99", "completed"},
	}
	for _, r := range results {
		tab.AddRowf(r.Spec.Topology.Kind, r.Spec.Layers, r.Spec.Rho,
			r.FCT.Mean, r.FCT.P10, r.FCT.P99, fmtPct(r.Completed))
	}
	return tab, nil
}

func runFig13(o Options) (*stats.Table, error) {
	m := &scenario.Matrix{
		Name: "fig13",
		Base: scenario.Spec{
			Pattern:   scenario.Pattern{Kind: "uniform", Randomize: true},
			FlowSize:  scenario.FlowSize{Bytes: 1 << 20},
			Load:      300,
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{
			Topologies: []scenario.Topology{
				{Kind: "SF", Param: pick(o, 7, 13)},
				{Kind: "JF", Param: pick(o, 7, 13)},
				{Kind: "DF", Param: pick(o, 3, 5)},
			},
		},
	}
	results, err := runSpecs(o, mustExpand(m))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 13: larger networks, 1MiB flows (NDP mode)",
		Headers: []string{"topology", "N", "mean MiB/s", "FCT p50 ms", "FCT p99 ms", "completed"},
	}
	for _, r := range results {
		tab.AddRowf(r.TopoName, r.TopoN, r.Throughput.Mean, r.FCT.P50, r.FCT.P99, fmtPct(r.Completed))
	}
	return tab, nil
}

func runFig14(o Options) (*stats.Table, error) {
	var cells []scenario.Spec
	for _, t := range scenTopos(o, "DF", "FT", "HX", "JF", "SF", "XP") {
		for _, size := range []int64{20e3, 200e3, 2e6} {
			// Synchronized starts (load 0): at this scaled-down N, Poisson
			// staggering would dissolve the path collisions the figure
			// studies (the paper's N≈10k runs have enough concurrent
			// flows for lambda=200 to keep collisions persistent).
			cells = append(cells, tcpCells(scenario.Spec{
				Topology:  t,
				Transport: "tcp",
				Pattern:   scenario.Pattern{Kind: "adversarial"},
				FlowSize:  scenario.FlowSize{Bytes: size},
				HorizonMs: 12000,
			})...)
		}
	}
	results, err := runSpecs(o, cells)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 14: TCP — speedup over ECMP (mean and 99% tail of FCT)",
		Headers: []string{"topology", "flow KB", "series", "mean FCT ms", "p99 ms", "speedup mean", "speedup p99"},
	}
	// The speedup columns divide by the ECMP row of the same (topology,
	// size), which tcpCells puts first.
	var base stats.Summary
	for _, r := range results {
		if r.Spec.Routing == "ecmp" {
			base = r.FCT
		}
		tab.AddRowf(suiteTag(r.Spec.Topology), r.Spec.FlowSize.Bytes/1000, seriesName(r.Spec),
			r.FCT.Mean, r.FCT.P99, speedup(base.Mean, r.FCT.Mean), speedup(base.P99, r.FCT.P99))
	}
	return tab, nil
}

func runFig15(o Options) (*stats.Table, error) {
	const lambda = 200.0
	// Both simulated series face the identical Poisson arrival process:
	// they agree on every workload axis.
	fatpaths := scenario.Spec{
		Topology:  scenTopo(o, "SF"),
		Layers:    4,
		Rho:       0.6,
		Transport: "tcp",
		Pattern:   scenario.Pattern{Kind: "permutation", Randomize: true},
		FlowSize:  scenario.FlowSize{Bytes: 1 << 20},
		Load:      lambda,
		HorizonMs: 12000,
	}
	ecmp := fatpaths
	ecmp.Routing, ecmp.Layers, ecmp.Rho = "ecmp", 1, 1
	results, err := runSpecs(o, []scenario.Spec{fatpaths, ecmp})
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 15: 1MiB-flow FCT distribution on SF (TCP)",
		Headers: []string{"series", "p10 ms", "p50 ms", "p90 ms", "p99 ms", "mean ms"},
	}
	// The M/M/1-PS queueing-model prediction at the access link is not a
	// simulation; it samples from the run seed folded with 0.
	model := QueueModelSample(graph.NewRand(exec.FoldSeed(o.Seed, 0)), 4000, 1<<20, 10e9, lambda, 20*netsim.Microsecond)
	tab.AddRowf("queueing model", model.P10, model.P50, model.P90, model.P99, model.Mean)
	for i, name := range []string{"FatPaths(TCP)", "ECMP"} {
		fct := results[i].FCT
		tab.AddRowf(name, fct.P10, fct.P50, fct.P90, fct.P99, fct.Mean)
	}
	return tab, nil
}

func runFig16(o Options) (*stats.Table, error) {
	rhos := []float64{0.5, 0.7, 0.9, 1.0}
	if !o.Quick {
		rhos = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	// The rho sweep of one topology compares against the same workload.
	results, err := runSpecs(o, mustExpand(&scenario.Matrix{
		Name: "fig16",
		Base: scenario.Spec{
			Layers:    4,
			Transport: "tcp",
			Pattern:   scenario.Pattern{Kind: "adversarial"},
			FlowSize:  scenario.FlowSize{Bytes: 1 << 20},
			Load:      200,
			HorizonMs: 12000,
		},
		Axes: scenario.Axes{
			Topologies: scenTopos(o, "DF", "JF", "HX", "SF", "XP"),
			Rhos:       rhos,
		},
	}))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 16: impact of rho on 1MiB-flow FCT (TCP, n=4)",
		Headers: []string{"topology", "rho", "mean ms", "p10 ms", "p99 ms"},
	}
	for _, r := range results {
		tab.AddRowf(r.Spec.Topology.Kind, r.Spec.Rho, r.FCT.Mean, r.FCT.P10, r.FCT.P99)
	}
	return tab, nil
}

func runFig17(o Options) (*stats.Table, error) {
	sizes := []int64{20e3, 200e3}
	if !o.Quick {
		sizes = append(sizes, 2e6)
	}
	const horizonMs = 6000
	var cells []scenario.Spec
	for _, t := range scenTopos(o, "DF", "FT", "HX", "JF", "SF", "XP") {
		for _, size := range sizes {
			cells = append(cells, tcpCells(scenario.Spec{
				Topology:  t,
				Transport: "tcp",
				Pattern:   scenario.Pattern{Kind: "stencil", Randomize: true},
				FlowSize:  scenario.FlowSize{Bytes: size},
				HorizonMs: horizonMs,
			})...)
		}
	}
	results, err := runSpecs(o, cells)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 17: stencil+barrier completion time, speedup over ECMP (TCP)",
		Headers: []string{"topology", "flow KB", "series", "total ms", "speedup"},
	}
	// One bulk-synchronous round is a synchronized start of every stencil
	// flow followed by a barrier that waits for the slowest; an incomplete
	// round costs the whole horizon. The barrier drains the network, and
	// every round replays the same flows on the same fabric, so all rounds
	// are identical and the total is rounds × one round.
	rounds := float64(pick(o, 3, 5))
	var base float64
	for _, r := range results {
		round := r.FCT.Max
		if r.Completed < 1 {
			round = horizonMs
		}
		total := rounds * round
		if r.Spec.Routing == "ecmp" {
			base = total
		}
		tab.AddRowf(suiteTag(r.Spec.Topology), r.Spec.FlowSize.Bytes/1000, seriesName(r.Spec),
			total, speedup(base, total))
	}
	return tab, nil
}

func runFig20(o Options) (*stats.Table, error) {
	results, err := runSpecs(o, mustExpand(&scenario.Matrix{
		Name: "fig20",
		Base: scenario.Spec{
			Topology:  scenario.Topology{Kind: "Star", Param: pick(o, 24, 60)},
			Layers:    1,
			Rho:       1,
			Routing:   "minimal",
			Transport: "tcp",
			Pattern:   scenario.Pattern{Kind: "uniform"},
			FlowSize:  scenario.FlowSize{Bytes: 2e6},
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{Loads: []float64{100, 250, 500, 800}},
	}))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 20: 2MB-flow FCT vs arrival rate on a crossbar (TCP)",
		Headers: []string{"lambda", "p10 ms", "mean ms", "p90 ms", "completed"},
	}
	for _, r := range results {
		tab.AddRowf(r.Spec.Load, r.FCT.P10, r.FCT.Mean, r.FCT.P90, fmtPct(r.Completed))
	}
	return tab, nil
}

func runFig21(o Options) (*stats.Table, error) {
	results, err := runSpecs(o, mustExpand(&scenario.Matrix{
		Name: "fig21",
		Base: scenario.Spec{
			Layers:    1,
			Rho:       1,
			Routing:   "spray",
			Pattern:   scenario.Pattern{Kind: "uniform"},
			FlowSize:  scenario.FlowSize{Bytes: 256 << 10},
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{
			Topologies: []scenario.Topology{
				{Kind: "Star", Param: pick(o, 24, 128)},
				{Kind: "FT3", Param: pick(o, 3, 6)},
			},
			Loads: []float64{100, 300, 500},
		},
	}))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Fig 21: influence of lambda on baseline NDP (per-packet spray)",
		Headers: []string{"topology", "lambda", "FCT p10 ms", "mean ms", "p99 ms", "completed"},
	}
	for _, r := range results {
		tab.AddRowf(r.Spec.Topology.Kind, r.Spec.Load, r.FCT.P10, r.FCT.Mean, r.FCT.P99, fmtPct(r.Completed))
	}
	return tab, nil
}

func runAblTransport(o Options) (*stats.Table, error) {
	m := &scenario.Matrix{
		Name: "abl-transport",
		Base: scenario.Spec{
			Topology:  scenTopo(o, "SF"),
			Pattern:   scenario.Pattern{Kind: "adversarial"},
			FlowSize:  scenario.FlowSize{Bytes: 512 << 10},
			HorizonMs: 10000,
		},
		Axes: scenario.Axes{Transports: []string{"ndp", "tcp"}},
	}
	results, err := runSpecs(o, mustExpand(m))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Ablation: purified (NDP-style) transport vs TCP tail-drop, identical layers",
		Headers: []string{"transport", "mean FCT ms", "p99 ms", "drops", "trims"},
	}
	for _, r := range results {
		label := "tcp"
		if r.Spec.Transport == "ndp" {
			label = "purified"
		}
		tab.AddRowf(label, r.FCT.Mean, r.FCT.P99, r.Drops, r.Trims)
	}
	return tab, nil
}

func runAblConstruction(o Options) (*stats.Table, error) {
	m := &scenario.Matrix{
		Name: "abl-construction",
		Base: scenario.Spec{
			Topology:  scenTopo(o, "SF"),
			Layers:    5,
			Rho:       0.6,
			Pattern:   scenario.Pattern{Kind: "worst-case", Intensity: 0.55},
			FlowSize:  scenario.FlowSize{Bytes: 256 << 10},
			HorizonMs: 8000,
			MAT:       true,
		},
		Axes: scenario.Axes{Constructions: []string{"random", "min-interference"}},
	}
	results, err := runSpecs(o, mustExpand(m))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Ablation: layer construction scheme (MAT on worst-case pattern + sim FCT)",
		Headers: []string{"scheme", "MAT T", "sim mean FCT ms"},
	}
	for _, r := range results {
		tab.AddRowf(r.Spec.Construction, r.MAT, r.FCT.Mean)
	}
	return tab, nil
}

func runAblRandomization(o Options) (*stats.Table, error) {
	m := &scenario.Matrix{
		Name: "abl-randomization",
		Base: scenario.Spec{
			Topology:  scenTopo(o, "SF"),
			FlowSize:  scenario.FlowSize{Bytes: 512 << 10},
			HorizonMs: 8000,
		},
		Axes: scenario.Axes{Patterns: []scenario.Pattern{
			{Kind: "adversarial"},
			{Kind: "adversarial", Randomize: true},
		}},
	}
	results, err := runSpecs(o, mustExpand(m))
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Ablation: randomized workload mapping (§III-D)",
		Headers: []string{"mapping", "mean MiB/s", "p99 FCT ms"},
	}
	for _, r := range results {
		mapping := "skewed"
		if r.Spec.Pattern.Randomize {
			mapping = "randomized"
		}
		tab.AddRowf(mapping, r.Throughput.Mean, r.FCT.P99)
	}
	return tab, nil
}
