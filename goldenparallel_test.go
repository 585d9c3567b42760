package cookiewalk_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"cookiewalk"
)

// TestGoldenParallelism pins the multi-core determinism contract: the
// COMPLETE experiment output is byte-identical to the golden snapshot
// at every (GOMAXPROCS, Workers) combination a deployment might pick.
// The campaign engine's claim cursor and slot ring, one session slot
// per worker for the whole campaign, and padded cache shards are all
// pure mechanism — if any of them leaked scheduling into results, the
// diff would surface here first.
func TestGoldenParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full scale-0.02 experiment four times")
	}
	want, err := os.ReadFile("testdata/golden_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("gomaxprocs=%d/workers=%d", procs, workers), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				study := cookiewalk.New(cookiewalk.Config{
					Seed: 42, Scale: 0.02, Reps: 2, Workers: workers,
				})
				got, err := study.Report(cookiewalk.ExpAll)
				if err != nil {
					t.Fatal(err)
				}
				if got == string(want) {
					return
				}
				gotLines := strings.Split(got, "\n")
				wantLines := strings.Split(string(want), "\n")
				for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
					if gotLines[i] != wantLines[i] {
						t.Fatalf("output diverges from golden at line %d:\n got: %q\nwant: %q",
							i+1, gotLines[i], wantLines[i])
					}
				}
				t.Fatalf("output length changed: got %d lines, want %d lines",
					len(gotLines), len(wantLines))
			})
		}
	}
}
