// Package experiments regenerates every table and figure of the FatPaths
// evaluation (§IV, §VI, §VII and Appendix D). Each experiment is a named
// runner producing an aligned text table with the same rows/series the
// paper plots. Runners accept an Options struct controlling scale: Quick
// mode (the default for `go test`) uses the small size class and reduced
// sample counts; cmd/experiments can run the paper-scale variants.
//
// Every runner decomposes into independent cells fanned out over a worker
// pool (internal/exec) and merged in canonical order. Simulation runners
// state their cells as scenario specs (internal/scenario), which seed every
// topology, layer set, pattern, and workload from Options.Seed folded with
// the canonical key of that resource; analytic runners use runCells, which
// seeds each cell from Options.Seed folded with the cell index. Either
// way a runner's output is byte-identical for every Parallelism value.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Options control experiment scale, determinism, and execution.
type Options struct {
	// Quick selects reduced scale (small topologies, fewer samples).
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Parallelism is the number of worker goroutines fanning an
	// experiment's independent cells out over cores. 0 selects
	// runtime.GOMAXPROCS(0); 1 runs serially. Output is byte-identical for
	// every value: cells derive their RNGs from Seed and their own
	// coordinates alone, and rows merge in canonical cell order.
	Parallelism int
	// Shards is the per-simulation event-loop shard count (see
	// netsim.Config.Shards): cell-level parallelism fans cells over
	// workers, Shards splits each cell's event loop. Like Parallelism it is
	// an execution knob — output is byte-identical for every value. 0 runs
	// each simulation serially.
	Shards int
	// Progress, when non-nil, is called after each completed cell with the
	// number of completed cells and the runner's total. Invocations may
	// originate from worker goroutines but are serialized.
	Progress func(done, total int)
	// RunName labels telemetry records (the experiment ID being run).
	RunName string
	// Obs, when non-nil, instruments the run: fabrics report routing-core
	// telemetry and simulations flush their counters into it. Purely
	// observational — tables are byte-identical with or without it.
	Obs *obs.Registry
	// Telemetry, when non-nil, receives per-cell JSONL wall-time records.
	Telemetry *obs.Telemetry
	// Tracer, when non-nil, is offered to the runner's simulations; the
	// first to acquire it records its event loop (one bounded window per
	// process).
	Tracer *obs.Tracer
	// CacheDir, when non-empty, backs the simulation experiments with the
	// content-addressed result cache (see internal/scenario.Cache): cells
	// already computed under the same canonical identity, seed, and engine
	// fingerprint are read back instead of re-simulated. Output is
	// byte-identical with or without it, by the determinism contract.
	CacheDir string
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Experiment is one reproducible unit: a figure or table of the paper.
type Experiment struct {
	ID    string // "fig2", "tab4", ...
	Title string
	Run   func(Options) (*stats.Table, error)
}

var registry []Experiment

func register(id, title string, run func(Options) (*stats.Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids())
}

func ids() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// Cell is one independent unit of an experiment: it owns a private RNG
// seeded from (Options.Seed, Index) and a row sink whose rows are appended
// to the experiment table in cell-index order. A cell must not touch any
// mutable state shared with other cells.
type Cell struct {
	Index int
	// Rng is seeded with exec.FoldSeed(Options.Seed, Index) and private to
	// the cell.
	Rng *rand.Rand

	tab stats.Table
}

// AddRowf appends a row to the cell's slice of the experiment table,
// formatting like stats.Table.AddRowf.
func (c *Cell) AddRowf(cells ...interface{}) { c.tab.AddRowf(cells...) }

// runCells fans n independent cells out over Options.Parallelism workers
// and appends each cell's rows to tab in cell order. The first failing
// cell's error aborts the experiment.
func runCells(o Options, tab *stats.Table, n int, fn func(c *Cell) error) error {
	var mu sync.Mutex
	done := 0
	//det:allow globalrand -- wall-clock telemetry (cell timings) is observational and never feeds table output
	start := time.Now()
	rows, err := exec.ParallelMapLabeled(o.workers(), n,
		func(i int) string { return fmt.Sprintf("%s cell %d", o.RunName, i) },
		func(i int) ([][]string, error) {
			seed := exec.FoldSeed(o.Seed, uint64(i))
			c := &Cell{Index: i, Rng: graph.NewRand(seed)}
			//det:allow globalrand -- wall-clock telemetry (cell timings) is observational and never feeds table output
			cellStart := time.Now()
			err := fn(c)
			if o.Telemetry != nil {
				rec := obs.CellRecord{
					Type: "cell", Name: o.RunName, Index: i,
					//det:allow globalrand -- wall-clock telemetry (cell timings) is observational and never feeds table output
					WallMs:        time.Since(cellStart).Seconds() * 1e3,
					StartOffsetMs: cellStart.Sub(start).Seconds() * 1e3,
				}
				if err != nil {
					rec.Err = err.Error()
				}
				o.Telemetry.Emit(rec)
			}
			if err != nil {
				return nil, fmt.Errorf("cell %d: %w", i, err)
			}
			if o.Progress != nil {
				mu.Lock()
				done++
				o.Progress(done, n)
				mu.Unlock()
			}
			return c.tab.Rows, nil
		})
	if err != nil {
		return err
	}
	for _, rs := range rows {
		tab.Rows = append(tab.Rows, rs...)
	}
	return nil
}

// fmtPct renders a fraction as a percentage string.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
