package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestGoldenWithInstrumentation re-runs a sample of experiment IDs with the
// full observability stack attached — metrics registry, JSONL telemetry,
// and an event-loop tracer — and compares the rendered tables
// byte-for-byte against the same goldens the plain runs use. This is the
// tentpole guarantee of the obs layer: instrumentation observes, it never
// perturbs. The sample covers both execution paths of the simulation
// figures: fig2 and ext-failures (the scenario engine, without and with
// link failures) and ext-mptcp, whose k-subflow striping rows are the only
// simulations that run outside the engine.
func TestGoldenWithInstrumentation(t *testing.T) {
	for _, id := range []string{"fig2", "ext-failures", "ext-mptcp"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			reg := obs.NewRegistry()
			var telBuf bytes.Buffer
			tracer := obs.NewTracer(0, 50_000_000, 0) // 50 simulated ms
			tab, err := e.Run(Options{
				Quick: true, Seed: goldenSeed, Parallelism: 4,
				RunName: id, Obs: reg,
				Telemetry: obs.NewTelemetry(&telBuf),
				Tracer:    tracer,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.String(); got != string(want) {
				t.Errorf("instrumented run diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}

			// The instrumentation must also have actually observed the run.
			snap := reg.Snapshot()
			if snap[obs.MetricSimEvents] == 0 {
				t.Error("metrics on, but netsim.events_processed = 0")
			}
			if snap[obs.MetricRoutingTablesBuilt] == 0 {
				t.Error("metrics on, but routing.tables_built = 0")
			}
			cells := 0
			for _, line := range strings.Split(strings.TrimSpace(telBuf.String()), "\n") {
				var rec map[string]any
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("telemetry line is not JSON: %v\n%s", err, line)
				}
				if rec["type"] == "cell" {
					cells++
				}
			}
			if cells == 0 {
				t.Error("telemetry on, but no cell records emitted")
			}
			if tracer.Len() == 0 {
				t.Error("tracer on, but no events recorded")
			}
		})
	}
}
