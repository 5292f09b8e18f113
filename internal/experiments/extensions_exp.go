package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Extension experiments beyond the paper's numbered figures: the §V-G
// fault-tolerance behaviour, the §VIII-A2 MPTCP subflow striping, and the
// §V-D/E forwarding-state sizing analysis.

func init() {
	register("ext-failures", "Resilience: completion and FCT vs failed links (FatPaths vs single-path)", runExtFailures)
	register("ext-mptcp", "MPTCP-style subflow striping over layers vs flowlet FatPaths (TCP)", runExtMPTCP)
	register("ext-tables", "Forwarding table sizing: flat vs prefix matching (SS V-D/E)", runExtTables)
}

func runExtFailures(o Options) (*stats.Table, error) {
	// A uniform pattern thinned to about 60 (quick) or 200 (full) flows:
	// SF q=5 has 200 endpoints, SF q=11 has 2178.
	intensity := 0.3
	if !o.Quick {
		intensity = 0.092
	}
	base := scenario.Spec{
		Topology:  scenTopo(o, "SF"),
		Pattern:   scenario.Pattern{Kind: "uniform", Intensity: intensity},
		FlowSize:  scenario.FlowSize{Bytes: 64 << 10},
		HorizonMs: 3000,
	}
	// The engine folds the failed-link set from (topology, failFrac), so
	// both series lose the same links at each failure level.
	var cells []scenario.Spec
	for _, s := range []struct {
		routing string
		layers  int
		rho     float64
	}{{"fatpaths", 9, 0.6}, {"minimal", 1, 1}} {
		for _, frac := range []float64{0, 0.02, 0.05, 0.10} {
			c := base
			c.Routing, c.Layers, c.Rho, c.FailFrac = s.routing, s.layers, s.rho, frac
			cells = append(cells, c)
		}
	}
	results, err := runSpecs(o, cells)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "Resilience under link failures (NDP transport, 64KiB flows)",
		Headers: []string{"series", "failed links", "completed", "mean FCT ms", "p99 ms"},
	}
	for _, r := range results {
		name := "FatPaths(9 layers)"
		if r.Spec.Routing == "minimal" {
			name = "single minimal path"
		}
		tab.AddRowf(name, r.FailedLinks, fmtPct(r.Completed), r.FCT.Mean, r.FCT.P99)
	}
	return tab, nil
}

func runExtMPTCP(o Options) (*stats.Table, error) {
	// All four series run the identical workload on the identical fabric.
	flowlet := scenario.Spec{
		Topology:  scenTopo(o, "SF"),
		Layers:    4,
		Rho:       0.6,
		Transport: "tcp",
		Pattern:   scenario.Pattern{Kind: "adversarial"},
		FlowSize:  scenario.FlowSize{Bytes: 512 << 10},
		HorizonMs: 10000,
	}
	mptcp := flowlet
	mptcp.Transport = "mptcp" // LIA-coupled subflows over pinned layers
	results, err := runSpecs(o, []scenario.Spec{flowlet, mptcp})
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{
		Title:   "MPTCP subflow striping vs flowlet FatPaths (512KiB messages, TCP)",
		Headers: []string{"series", "mean FCT ms", "p99 ms", "completed"},
	}
	for i, name := range []string{"flowlet FatPaths", "MPTCP transport (LIA)"} {
		r := results[i]
		tab.AddRowf(name, r.FCT.Mean, r.FCT.P99, fmtPct(r.Completed))
	}
	// The engine has no k-subflow striping transport, so these rows drive
	// core.RunWorkloadMPTCP on the fabric the engine builds for the
	// flowlet cell.
	t, fab, err := scenario.BuildFabric(flowlet, o.Seed, o.Obs)
	if err != nil {
		return nil, err
	}
	cfg := netsim.TCPDefaults(netsim.TransportTCP)
	cfg.Shards = o.Shards
	pat := traffic.AdversarialOffDiagonal(t)
	ks := []int{2, 4}
	striped, err := exec.ParallelMap(o.workers(), len(ks), func(i int) ([]core.MPTCPResult, error) {
		return fab.RunWorkloadMPTCP(cfg, pat, flowlet.FlowSize.Bytes, ks[i],
			netsim.Time(flowlet.HorizonMs*1e6), o.Seed)
	})
	if err != nil {
		return nil, err
	}
	for i, mres := range striped {
		var sm stats.Sample
		for _, r := range mres {
			if r.Done {
				sm.Add(r.FCT.Seconds() * 1e3)
			}
		}
		s := sm.Summarize()
		tab.AddRowf("MPTCP k="+strconv.Itoa(ks[i]), s.Mean, s.P99, fmtPct(float64(s.N)/float64(len(mres))))
	}
	return tab, nil
}

func runExtTables(o Options) (*stats.Table, error) {
	rng := graph.NewRand(o.Seed)
	tab := &stats.Table{
		Title:   "Forwarding state per router: flat exact match vs prefix match vs deployed CSR tables",
		Headers: []string{"topology", "N", "Nr", "layers", "flat entries", "prefix entries", "compression", "fits VLANs", "CSR entries", "tables built"},
	}
	suite, err := topo.BuildSuite(sizeClass(o), rng)
	if err != nil {
		return nil, err
	}
	tops := suite.All()
	// The final cell is the paper's worked example: SF with N=10830, Nr=722.
	if err := runCells(o, tab, len(tops)+1, func(c *Cell) error {
		t := tops[0]
		name := ""
		if c.Index < len(tops) {
			t = tops[c.Index]
			name = t.Name
		} else {
			sf19, err := topo.SlimFly(19, 15)
			if err != nil {
				return err
			}
			t = sf19
			name = sf19.Name + " (paper example)"
		}
		sz := layers.SizeTables(t, 9)
		// Measure the routing state a real deployment materializes: the
		// shared multi-next-hop tables (internal/routing) build lazily per
		// destination, so a workload routing to a handful of destination
		// routers occupies a sliver of the dense n·Nr² footprint even at
		// the paper-example scale.
		fab, err := core.Build(t, core.Config{NumLayers: sz.Layers, Rho: 0.6, Seed: o.Seed, Obs: o.Obs})
		if err != nil {
			return err
		}
		dsts := 8
		if dsts > t.Nr() {
			dsts = t.Nr()
		}
		for _, d := range c.Rng.Perm(t.Nr())[:dsts] {
			for l := 0; l < fab.Fwd.NumLayers(); l++ {
				fab.Fwd.Candidates(l, 0, d)
			}
		}
		dep := layers.SizeDeployedFor(fab.Fwd)
		c.AddRowf(name, t.N(), t.Nr(), sz.Layers, sz.FlatEntries, sz.PrefixEntries,
			sz.Compression, sz.FitsVLANs, dep.CandEntries,
			fmt.Sprintf("%d/%d", dep.TablesBuilt, dep.TablesTotal))
		return nil
	}); err != nil {
		return nil, err
	}
	return tab, nil
}
