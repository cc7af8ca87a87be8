package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestTraceAdmissionDoesNotMaterialise pins what admitting an inline
// trace costs. Validate runs every parser check over the whole trace but
// keeps only the header, and Workload reads one line: neither may copy
// the spec string (the daemon caps it at 4 MB) or build the call log
// (about ten times that), so each stays within a small fixed budget
// however long the trace is.
func TestTraceAdmissionDoesNotMaterialise(t *testing.T) {
	const ranks, perRank = 16, 3200
	var b strings.Builder
	b.WriteString(`{"mpisim_trace":1,"app":"ring","ranks":16,"machine":"ibmsp","comm":"analytic"}` + "\n")
	for r := 0; r < ranks; r++ {
		for i := 0; i < perRank; i++ {
			fmt.Fprintf(&b, `{"r":%d,"op":"sendrecv","peer":%d,"tag":%d,"bytes":4096,"peer2":%d,"tag2":%d}`+"\n",
				r, (r+1)%ranks, i, (r+ranks-1)%ranks, i)
		}
	}
	spec := &RunSpec{Trace: b.String(), Mode: "replay"}
	if n := len(spec.Trace); n < 4_000_000 || n > 4<<20 {
		t.Fatalf("test trace is %d bytes, want just under the daemon's 4 MB cap", n)
	}
	spec.Normalize()

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if got := allocated(func() {
		if err := spec.Validate(0); err != nil {
			t.Fatal(err)
		}
	}); got > 256<<10 {
		t.Errorf("Validate allocated %d bytes admitting a %d-byte trace, want <= 256 KB", got, len(spec.Trace))
	}
	if got := allocated(func() {
		if w := spec.Workload(); w != "ring" {
			t.Fatalf("Workload() = %q, want the header's app", w)
		}
	}); got > 128<<10 {
		t.Errorf("Workload allocated %d bytes reading one header line, want <= 128 KB", got)
	}

	// A bad event is still refused at admission, on its line.
	bad := &RunSpec{Trace: spec.Trace + `{"r":16,"op":"barrier"}` + "\n", Mode: "replay"}
	bad.Normalize()
	if err := bad.Validate(0); err == nil || !strings.Contains(err.Error(), "rank 16 out of range") {
		t.Errorf("Validate of a trace with a bad last line: %v", err)
	}
}
