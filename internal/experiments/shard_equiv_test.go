package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShardEquivalence is the experiment-level determinism contract of the
// sharded event loop: a sample of experiment IDs re-run with Options.Shards
// set to 2 and 8 must render byte-identically to the checked-in goldens,
// which are recorded from serial (shards = 1) runs. The sample covers both
// execution paths of the simulation figures: fig2 and ext-failures (the
// scenario engine, without and with link failures) and ext-mptcp, whose
// k-subflow striping rows are the only simulations that run outside the
// engine. Combined with TestGolden this proves
// results are invariant in BOTH execution knobs — worker parallelism and
// event-loop shard count.
func TestShardEquivalence(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sharded re-runs of simulation figures: skipped under -short and -race")
	}
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
			for _, shards := range []int{2, 8} {
				tab, err := e.Run(Options{
					Quick: true, Seed: goldenSeed, Parallelism: 4,
					Shards: shards, RunName: id,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := tab.String(); got != string(want) {
					t.Errorf("shards=%d diverged from the serial golden:\n--- got ---\n%s\n--- want ---\n%s",
						shards, got, want)
				}
			}
		})
	}
}
