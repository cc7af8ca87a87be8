package tracein_test

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/tracein"
)

// TestCodecAllocCeilings holds both sides of the format to a tenth of
// an allocation per line on a recorded sweep3d trace, in its v2 form and
// — parse side — in the per-rank v1 form. What is left is per class or
// per rank (one call slice each), per run of the members line (one
// slice each, from encoding/json) and per file (header, buffers,
// interned task names, the fold's tables): nothing is per line.
// The reflective codec this replaced paid 14 allocations per line to
// parse and 2 to write.
func TestCodecAllocCeilings(t *testing.T) {
	tr := recordSweep3D(t, 64)
	var v2, v1 bytes.Buffer
	if err := tracein.Write(&v2, tr); err != nil {
		t.Fatal(err)
	}
	if err := tracein.RefWriteV1(&v1, tr); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		file []byte
		op   func()
	}{
		{"ParseBytes v2", v2.Bytes(), func() {
			if _, err := tracein.ParseBytes(v2.Bytes()); err != nil {
				t.Fatal(err)
			}
		}},
		{"ParseBytes v1", v1.Bytes(), func() {
			if _, err := tracein.ParseBytes(v1.Bytes()); err != nil {
				t.Fatal(err)
			}
		}},
		{"Write", v2.Bytes(), func() {
			if err := tracein.Write(io.Discard, tr); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		lines := float64(bytes.Count(c.file, []byte("\n")))
		allocs := testing.AllocsPerRun(5, c.op)
		t.Logf("%s: %d lines, %.0f allocs (%.4f/line)", c.name, int(lines), allocs, allocs/lines)
		if allocs/lines > 0.1 {
			t.Errorf("%s: %.3f allocs per line, want <= 0.1", c.name, allocs/lines)
		}
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
	sizes := tr.CallsOf(7)[0].Sizes
	if len(sizes) != ranks || sizes[0] != 1000 || sizes[ranks-1] != 1000+(ranks-1)%9000 {
		t.Fatalf("sizes came back with %d entries (first %d)", len(sizes), sizes[0])
	}
	if len(tr.CallsOf(0)) != 1 || len(tr.CallsOf(1)) != 1 {
		t.Fatalf("the lines around the long one were lost")
	}

	// A defect on the line after the long one is still anchored there.
	_, err = tracein.ParseBytes([]byte(b.String() + `{"r":0,"op":"warp"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error after the long line: %v", err)
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
