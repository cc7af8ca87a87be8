package tracein_test

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/tracein"
)

// TestCodecAllocCeilings holds both sides of the format to a tenth of
// an allocation per event line on a recorded sweep3d trace. What is
// left is per rank (one call slice each) and per file (header, buffers,
// interned task names): nothing is per line. The reflective codec this
// replaced paid 14 allocations per line to parse and 2 to write.
func TestCodecAllocCeilings(t *testing.T) {
	tr := recordSweep3D(t, 64)
	var file bytes.Buffer
	if err := tracein.Write(&file, tr); err != nil {
		t.Fatal(err)
	}
	lines := float64(tr.Events() + 1)
	parse := testing.AllocsPerRun(5, func() {
		if _, err := tracein.ParseBytes(file.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	write := testing.AllocsPerRun(5, func() {
		if err := tracein.Write(io.Discard, tr); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d lines: parse %.0f allocs (%.4f/line), write %.0f allocs (%.4f/line)",
		int(lines), parse, parse/lines, write, write/lines)
	if parse/lines > 0.1 {
		t.Errorf("ParseBytes: %.3f allocs per line, want <= 0.1", parse/lines)
	}
	if write/lines > 0.1 {
		t.Errorf("Write: %.3f allocs per line, want <= 0.1", write/lines)
	}
}

// TestLongSizesLine parses an alltoall event whose sizes array names
// 65,536 ranks: one line of about 300 KB, several times the reader's
// buffer, which must spill rather than fail or truncate.
func TestLongSizesLine(t *testing.T) {
	const ranks = 1 << 16
	var b strings.Builder
	b.WriteString(`{"mpisim_trace":1,"ranks":` + strconv.Itoa(ranks) + `,"machine":"ibmsp"}` + "\n")
	b.WriteString(`{"r":0,"op":"barrier"}` + "\n")
	lineStart := b.Len()
	b.WriteString(`{"r":7,"op":"alltoall","bytes":0,"sizes":[`)
	for i := 0; i < ranks; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(1000 + i%9000))
	}
	b.WriteString("]}\n")
	if n := b.Len() - lineStart; n < 300_000 {
		t.Fatalf("sizes line is only %d bytes", n)
	}
	b.WriteString(`{"r":1,"op":"barrier"}` + "\n")

	tr, err := checkAgainstReference(t, []byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	sizes := tr.Calls[7][0].Sizes
	if len(sizes) != ranks || sizes[0] != 1000 || sizes[ranks-1] != 1000+(ranks-1)%9000 {
		t.Fatalf("sizes came back with %d entries (first %d)", len(sizes), sizes[0])
	}
	if len(tr.Calls[0]) != 1 || len(tr.Calls[1]) != 1 {
		t.Fatalf("the lines around the long one were lost")
	}

	// A defect on the line after the long one is still anchored there.
	_, err = tracein.ParseBytes([]byte(b.String() + `{"r":0,"op":"warp"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error after the long line: %v", err)
	}
}

// TestCapacityHintIsBounded feeds Parse the rank order that would turn
// a naive "size every rank like the longest so far" hint into an
// allocation bomb: rank 0 records 100k events, then 10k other ranks
// record one each. What Parse reserves ahead is bounded by what it has
// read, so the call log's capacity stays within twice its length.
func TestCapacityHintIsBounded(t *testing.T) {
	const long, others = 100_000, 10_000
	var b strings.Builder
	b.WriteString(`{"mpisim_trace":1,"ranks":` + strconv.Itoa(others+1) + `,"machine":"ibmsp"}` + "\n")
	for i := 0; i < long; i++ {
		b.WriteString(`{"r":0,"op":"compute","sec":1e-6}` + "\n")
	}
	for r := 1; r <= others; r++ {
		b.WriteString(`{"r":` + strconv.Itoa(r) + `,"op":"barrier"}` + "\n")
	}
	tr, err := tracein.ParseBytes([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var length, capacity int
	for _, calls := range tr.Calls {
		length += len(calls)
		capacity += cap(calls)
	}
	if length != long+others {
		t.Fatalf("parsed %d events, want %d", length, long+others)
	}
	const callSize = int(unsafe.Sizeof(mpi.Call{}))
	t.Logf("call log: %d calls materialised (%d KB), %d reserved (%d KB)",
		length, length*callSize>>10, capacity, capacity*callSize>>10)
	if capacity > 2*length {
		t.Errorf("call log holds capacity for %d calls to store %d: more than 2x", capacity, length)
	}
}

// TestCapacityHintSizesRanks is the other side of the bound: on an SPMD
// trace in rank order the hint does its job, and nearly every rank's
// slice is allocated once at its final size.
func TestCapacityHintSizesRanks(t *testing.T) {
	tr := recordSweep3D(t, 64)
	var file bytes.Buffer
	if err := tracein.Write(&file, tr); err != nil {
		t.Fatal(err)
	}
	parsed, err := tracein.ParseBytes(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var length, capacity int
	for _, calls := range parsed.Calls {
		length += len(calls)
		capacity += cap(calls)
	}
	if float64(capacity) > 1.25*float64(length) {
		t.Errorf("call log of %d calls holds capacity for %d: the hint is not sizing ranks", length, capacity)
	}
}

// TestReplayAllocatesPerRankNotPerWait: a replayed rank is one program,
// one continuation handler and a pc — waiting for a message allocates
// nothing. A 64-rank ring replay allocates the same at 10 messages per
// rank as at 1,000. (Returning a fresh handler per wait would cost one
// allocation per message: 64,000 here.)
func TestReplayAllocatesPerRankNotPerWait(t *testing.T) {
	const p = 64
	m := machine.IBMSP()
	replayAllocs := func(steps int) float64 {
		rep, err := mpi.Run(mpi.Config{Ranks: p, Machine: m, Comm: mpi.Analytic, RecordCalls: true}, benchBody(p, steps))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracein.Record(rep, tracein.Header{Machine: m.Name, Comm: "analytic"})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := tracein.Replay(tr, mpi.Config{Machine: m}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := replayAllocs(10), replayAllocs(1000)
	t.Logf("64-rank ring replay: %.0f allocations at 10 messages per rank, %.0f at 1,000", short, long)
	if long > short*1.02 || long < short*0.98 {
		t.Errorf("replay allocations follow the message count: %.0f at 10 per rank, %.0f at 1,000", short, long)
	}
}
