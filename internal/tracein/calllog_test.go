package tracein

import (
	"testing"
	"unsafe"

	"mpisim/internal/mpi"
)

// logCapacity feeds callLog the (rank, count) runs in order, as Parse
// feeds it a file's event lines, and returns the calls it stored and the
// capacity it reserved.
func logCapacity(ranks int, runs [][2]int) (length, capacity int) {
	l := callLog{calls: make([][]mpi.Call, ranks)}
	c := mpi.Call{Op: "barrier"}
	for _, run := range runs {
		for i := 0; i < run[1]; i++ {
			l.add(run[0], &c)
		}
	}
	for _, calls := range l.calls {
		length += len(calls)
		capacity += cap(calls)
	}
	return length, capacity
}

// TestCapacityHintIsBounded feeds the call log the rank order that would
// turn a naive "size every rank like the longest so far" hint into an
// allocation bomb: rank 0 records 100k events, then 10k other ranks
// record one each. What Parse reserves ahead is bounded by what it has
// read, so the call log's capacity stays within twice its length.
func TestCapacityHintIsBounded(t *testing.T) {
	const long, others = 100_000, 10_000
	runs := [][2]int{{0, long}}
	for r := 1; r <= others; r++ {
		runs = append(runs, [2]int{r, 1})
	}
	length, capacity := logCapacity(others+1, runs)
	if length != long+others {
		t.Fatalf("stored %d events, want %d", length, long+others)
	}
	const callSize = int(unsafe.Sizeof(mpi.Call{}))
	t.Logf("call log: %d calls materialised (%d KB), %d reserved (%d KB)",
		length, length*callSize>>10, capacity, capacity*callSize>>10)
	if capacity > 2*length {
		t.Errorf("call log holds capacity for %d calls to store %d: more than 2x", capacity, length)
	}
}

// TestCapacityHintSizesRanks is the other side of the bound: on an SPMD
// trace in rank order (near-equal ranks, as a v1 file lists them, or a
// v2 file its representatives) the hint does its job, and nearly every
// rank's slice is allocated once at its final size.
func TestCapacityHintSizesRanks(t *testing.T) {
	const ranks = 64
	var runs [][2]int
	for r := 0; r < ranks; r++ {
		runs = append(runs, [2]int{r, 300 - r%3})
	}
	length, capacity := logCapacity(ranks, runs)
	if float64(capacity) > 1.25*float64(length) {
		t.Errorf("call log of %d calls holds capacity for %d: the hint is not sizing ranks", length, capacity)
	}
}
