// Package arena hands out values from fixed-size chunks, so a page's
// worth of DOM nodes or tag attributes costs a few chunk allocations
// instead of one per value.
//
// An Arena runs in one of two modes:
//
//   - plain (the zero value): memory is consumed, never rewound. A
//     handed-out value stays valid for as long as anything points at
//     it; a chunk is collected once nothing does.
//   - recycling (after SetRecycling): the arena keeps its chunks, and
//     Recycle zeroes every value handed out since the previous Recycle
//     and hands that memory out again. The caller must drop every such
//     value first. Zeroing happens at once, so a value used after its
//     recycle reads as zero instead of as stale data.
package arena

// chunkSlots is the number of values per standard chunk. Over the 53 910
// pages the full-scale landscape crawl analyzes (seed 42, frames
// included), one page takes a median of 52 and at most 71 nodes, and a
// median of 16 and at most 31 attributes: one chunk, at most two.
const chunkSlots = 64

// keptChunks bounds the chunks a recycling arena retains across
// Recycle: twice the most any analyzed farm page needs (two node
// chunks, see chunkSlots). A session that parses one huge page keeps
// only this many standard chunks afterwards and lets the garbage
// collector have the rest, so a single outlier cannot pin its memory
// for the session's lifetime.
const keptChunks = 4

// Arena hands out T values from chunks. It is not safe for concurrent
// use. A given arena serves either single values (New) or contiguous
// runs (Append, Run), never both.
type Arena[T any] struct {
	// cur is the current chunk: its length counts the values handed
	// out, its capacity is the chunk size.
	cur []T
	// run is the start in cur of the run being built by Append.
	run int

	recycling bool
	// chunks holds, in recycling mode, the chunks handed out from since
	// the last Recycle — chunks[:used] full, chunks[used] current (its
	// length is written back from cur when it is left) — followed by
	// zeroed spares.
	chunks [][]T
	used   int
}

// SetRecycling switches the arena to recycling mode. Call it before
// the arena hands out its first value.
func (a *Arena[T]) SetRecycling() { a.recycling = true }

// New returns a pointer to a zeroed value.
func (a *Arena[T]) New() *T {
	if len(a.cur) == cap(a.cur) {
		a.next(chunkSlots)
	}
	a.cur = a.cur[:len(a.cur)+1]
	return &a.cur[len(a.cur)-1]
}

// Append adds v to the run being built. A run never straddles chunks:
// when the current chunk is full the run moves to the next one, so
// Run can hand it out as one slice.
func (a *Arena[T]) Append(v T) {
	if len(a.cur) == cap(a.cur) {
		run := a.cur[a.run:]
		a.next(max(chunkSlots, 2*len(run)))
		a.cur = append(a.cur, run...)
		a.run = 0
	}
	a.cur = append(a.cur, v)
}

// Pending returns the run built since the last Run call. It is valid
// only until the next Append.
func (a *Arena[T]) Pending() []T { return a.cur[a.run:] }

// Run ends the run being built and returns it, or nil when it is
// empty. The slice is capacity-capped, so appending to it reallocates
// instead of overwriting the values that follow.
func (a *Arena[T]) Run() []T {
	end := len(a.cur)
	if end == a.run {
		return nil
	}
	r := a.cur[a.run:end:end]
	a.run = end
	return r
}

// next makes a chunk with room for at least need values current.
func (a *Arena[T]) next(need int) {
	if !a.recycling {
		a.cur = make([]T, 0, need)
		return
	}
	if a.cur != nil {
		a.chunks[a.used] = a.cur
		a.used++
	}
	if a.used < len(a.chunks) && cap(a.chunks[a.used]) >= need {
		a.cur = a.chunks[a.used]
		return
	}
	a.cur = make([]T, 0, need)
	if a.used < len(a.chunks) {
		a.chunks[a.used] = a.cur // a spare too small for an outsized run
	} else {
		a.chunks = append(a.chunks, a.cur)
	}
}

// Recycle zeroes every value handed out since the previous Recycle and
// makes that memory available again, keeping at most keptChunks
// standard-size chunks. It panics on a plain arena, whose values may
// live forever.
func (a *Arena[T]) Recycle() {
	if !a.recycling {
		panic("arena: Recycle on a plain arena")
	}
	if a.cur == nil {
		return
	}
	a.chunks[a.used] = a.cur
	kept := 0
	for i, c := range a.chunks {
		if i <= a.used {
			clear(c)
		}
		if kept < keptChunks && cap(c) == chunkSlots {
			a.chunks[kept] = c[:0]
			kept++
		}
	}
	clear(a.chunks[kept:])
	a.chunks = a.chunks[:kept]
	a.used, a.run, a.cur = 0, 0, nil
	if kept > 0 {
		a.cur = a.chunks[0]
	}
}
