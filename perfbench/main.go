// Command perfbench is the repository benchmark. It runs one named
// workload at a seed, checks every output against an independent
// computation, and prints one JSON result object as the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics of a layer-by-layer traced replay with --trace 1.
//
// Run it from the repository root through run.sh, which builds it from
// source:
//
//	bash perfbench/run.sh --workload tcp-collide --seed 1 --seconds 30 --trace 0
//
// The program is driven only through its public surface
// (scenario.RunSpecs, the exported fabric builders, core.Fabric/netsim.Sim
// and serve.New(...).Handler()); every span is recorded here, around the
// calls into each layer. README.md beside this file lists the workloads,
// the metrics, and which metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations. A failed operation is an
// errored cell, a non-200 response, or an output that fails verification.
type tally struct {
	attempted, failed int64
	firstErr          string
}

// check counts one operation, failed unless ok.
func (t *tally) check(ok bool, format string, args ...interface{}) {
	t.attempted++
	if !ok {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = fmt.Sprintf(format, args...)
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	workers  int
}

// workloads maps each workload name to its plain and traced runners.
var workloads = map[string]struct {
	plain, traced func(o options) (map[string]metric, tally, error)
}{
	"tcp-collide": {plainSweep(tcpCollideCells), tracedSweep(tcpCollideCells)},
	"ndp-fabrics": {plainSweep(ndpFabricCells), tracedSweep(ndpFabricCells)},
	"daemon-mix":  {plainDaemon, tracedDaemon},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: tcp-collide, ndp-fabrics or daemon-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured duration of the run")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced replay instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || fs.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload tcp-collide|ndp-fabrics|daemon-mix, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o.trace = trace == 1
	o.outDir = ".bench_out"
	o.workers = runtime.NumCPU()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	runner := w.plain
	if o.trace {
		runner = w.traced
	}
	ms, t, err := runner(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if t.firstErr != "" {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed; first: %s\n", o.workload, t.failed, t.attempted, t.firstErr)
	}
	res := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeJSONFile writes v beside the results, so any run can be inspected.
func writeJSONFile(o options, suffix string, v interface{}) error {
	mode := "plain"
	if o.trace {
		mode = "trace"
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-%s-%s.json", o.workload, o.seed, mode, suffix))
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
