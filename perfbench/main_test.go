package main

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// planted is an answer no endpoint ever returns.
var planted = serve.HealthAnswer{Status: "planted wrong answer"}

func TestInputsFollowTheSeed(t *testing.T) {
	for name, gen := range map[string]func(int64) []scenario.Spec{"tcp-collide": tcpCollideCells, "ndp-fabrics": ndpFabricCells} {
		a, err := sweepInputs(gen, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := sweepInputs(gen, 7)
		c, _ := sweepInputs(gen, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different cell lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same cell list", name)
		}
	}
}

// TestPlantedSweepFaultsFail checks that a wrong flow count, a result that
// changes between passes, and a replay that differs from RunSpecs each
// count as one failed operation, and that the honest run counts none.
func TestPlantedSweepFaultsFail(t *testing.T) {
	const seed = 3
	cells := []scenario.Spec{{
		Topology: scenario.Topology{Kind: "SF", Param: 5}, Transport: "dctcp", Routing: "fatpaths", Layers: 4, Rho: 0.6,
		Pattern: scenario.Pattern{Kind: "adversarial"}, FlowSize: scenario.FlowSize{Kind: "fixed", Bytes: 20e3}, HorizonMs: horizonMs,
	}}
	ref, err := runPass(cells, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := expectedFlows(cells, seed)
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplay(seed, newTracer())
	reps := rp.run(cells, 1)

	var honest tally
	checkPass(&honest, cells, ref, ref, flows)
	checkReplay(&honest, cells, ref, reps)
	if honest.attempted != 2 || honest.failed != 0 {
		t.Fatalf("honest run: %d of %d failed (%s)", honest.failed, honest.attempted, honest.firstErr)
	}

	var wrongCount tally
	checkPass(&wrongCount, cells, ref, nil, []int{flows[0] + 1})
	wrongFCT := append([]scenario.CellResult(nil), ref...)
	wrongFCT[0].FCT.P50 += 1e-9
	var drift, replayed tally
	checkPass(&drift, cells, wrongFCT, ref, flows)
	checkReplay(&replayed, cells, wrongFCT, reps)
	for name, got := range map[string]tally{"flow count": wrongCount, "pass drift": drift, "replay": replayed} {
		if got.attempted != 1 || got.failed != 1 {
			t.Errorf("planted %s fault: %d of %d failed, want 1 of 1", name, got.failed, got.attempted)
		}
	}
}

// TestPlantedDaemonAnswerFails plants a wrong expected answer on one
// request and checks that exactly its calls count as failed, on the
// direct leg and over the loopback leg.
func TestPlantedDaemonAnswerFails(t *testing.T) {
	o := options{seed: 5, outDir: t.TempDir(), workers: 2, workload: "test"}
	fabrics := []fabricSpec{{Topology: scenario.Topology{Kind: "SF", Param: 5}, Layers: 3, Seed: o.seed}}
	srv, reqs, _, _, err := daemonSetup(o, fabrics, daemonShape{requests: 200})
	if err != nil {
		t.Fatal(err)
	}
	var nexthops []*request
	for _, r := range reqs {
		if r.Kind == "nexthop" {
			nexthops = append(nexthops, r)
		}
	}
	var honest tally
	if _, _, _, _, err := directLeg(srv.Handler(), nil, "nexthop", nexthops, len(nexthops), &honest); err != nil {
		t.Fatal(err)
	}
	if honest.failed != 0 {
		t.Fatalf("honest direct leg: %d failed (%s)", honest.failed, honest.firstErr)
	}

	if err := nexthops[0].setExpected(planted); err != nil {
		t.Fatal(err)
	}
	var direct tally
	if _, _, _, _, err := directLeg(srv.Handler(), nil, "nexthop", nexthops, len(nexthops), &direct); err != nil {
		t.Fatal(err)
	}
	if direct.failed != 1 {
		t.Errorf("direct leg with one planted answer: %d of %d failed, want 1", direct.failed, direct.attempted)
	}

	loop, err := loopback(srv.Handler(), nexthops[:1], 1, 0, 0.05, false)
	if err != nil {
		t.Fatal(err)
	}
	if loop.t.attempted == 0 || loop.t.failed != loop.t.attempted {
		t.Errorf("loopback leg sending only the planted request: %d of %d failed, want all", loop.t.failed, loop.t.attempted)
	}
}
