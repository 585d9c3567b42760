package arena

import "testing"

type pair struct{ a, b int }

// TestRecycleZeroesAndBoundsRetention checks the recycling contract:
// every value handed out since the previous Recycle reads as zero
// afterwards, a warm arena hands out memory without allocating, and a
// burst far beyond the steady state leaves only keptChunks behind.
func TestRecycleZeroesAndBoundsRetention(t *testing.T) {
	var a Arena[pair]
	a.SetRecycling()
	fill := func(n int) []*pair {
		out := make([]*pair, n)
		for i := range out {
			p := a.New()
			if *p != (pair{}) {
				t.Fatalf("value %d handed out dirty: %v", i, *p)
			}
			*p = pair{i, -i}
			out[i] = p
		}
		return out
	}

	burst := fill(100 * chunkSlots)
	a.Recycle()
	for i, p := range burst {
		if *p != (pair{}) {
			t.Fatalf("value %d = %v after Recycle, want zero", i, *p)
		}
	}
	if len(a.chunks) != keptChunks {
		t.Fatalf("kept %d chunks after a burst, want %d", len(a.chunks), keptChunks)
	}

	fill(3 * chunkSlots) // warm
	a.Recycle()
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 3*chunkSlots; i++ {
			a.New().a = i
		}
		a.Recycle()
	}); allocs != 0 {
		t.Fatalf("warm recycling arena allocates %.1f per round, want 0", allocs)
	}
}

// TestPlainArenaNeverRewinds checks that a plain arena's values are
// never handed out twice, and that Recycle refuses to run on it.
func TestPlainArenaNeverRewinds(t *testing.T) {
	var a Arena[pair]
	seen := make(map[*pair]bool)
	for i := 0; i < 3*chunkSlots; i++ {
		p := a.New()
		if seen[p] {
			t.Fatalf("value %d handed out twice", i)
		}
		seen[p] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Recycle on a plain arena did not panic")
		}
	}()
	a.Recycle()
}
