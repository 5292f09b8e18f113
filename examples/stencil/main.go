// HPC stencil example (Fig 17's workload): a bulk-synchronous 2D stencil —
// four off-diagonal exchanges per round followed by a barrier — comparing
// ECMP against FatPaths on a Dragonfly, with and without the randomized
// workload mapping of §III-D.
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func main() {
	df, err := topo.Dragonfly(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %s — %d endpoints\n", df.Name, df.N())
	rng := graph.NewRand(1)
	skewed := traffic.Stencil2D(df.N(), []int{1, 42})
	randomized := traffic.RandomizeMapping(skewed, rng)

	const rounds = 4
	const flowBytes = 128 << 10
	// One round starts every exchange at t=0 and ends at a barrier that
	// waits for the slowest flow. The barrier drains the network, and the
	// simulation is deterministic, so every round replays the same flows
	// to the same completion times: the total is rounds × one round.
	run := func(label string, pat traffic.Pattern, cfg core.Config, lb netsim.LoadBalance) netsim.Time {
		fab, err := core.Build(df, cfg)
		if err != nil {
			log.Fatal(err)
		}
		simCfg := netsim.TCPDefaults(netsim.TransportTCP)
		simCfg.LB = lb
		const horizon = 6 * netsim.Second
		wl := core.Workload{Pattern: pat, FlowSize: traffic.FixedSize(flowBytes)}
		var round netsim.Time
		status := ""
		for _, fr := range fab.RunWorkload(simCfg, wl, horizon, 2) {
			if !fr.Done {
				round, status = horizon, " (incomplete rounds)"
				break
			}
			round = max(round, fr.FCT())
		}
		total := rounds * round
		fmt.Printf("%-34s %8.3f ms%s\n", label, total.Seconds()*1e3, status)
		return total
	}

	fmt.Printf("\n%d rounds of stencil + barrier, %d KiB per exchange (TCP):\n", rounds, flowBytes>>10)
	base := run("ECMP, skewed mapping", skewed, core.Config{NumLayers: 1, Rho: 1}, netsim.LBECMP)
	fp := run("FatPaths, skewed mapping", skewed, core.DefaultConfig(df), netsim.LBFatPaths)
	fpr := run("FatPaths, randomized mapping", randomized, core.DefaultConfig(df), netsim.LBFatPaths)
	fmt.Printf("\nspeedup over ECMP: FatPaths %.2fx, FatPaths+randomization %.2fx\n",
		float64(base)/float64(fp), float64(base)/float64(fpr))
	fmt.Println("\nnote: this stencil is locality-tuned (±1 neighbours share a router), so")
	fmt.Println("randomization trades that locality for even load — §III-D expects it to pay")
	fmt.Println("off on skewed patterns without locality, not to beat a locality-tuned layout.")
}
