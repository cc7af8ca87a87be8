package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/ir"
	"mpisim/internal/irgen"
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

// TestHostileProgramsRefused holds admission to the parser's nesting
// bounds: a program nested past them is an error, on its line, never a
// stack overflow in a later pass (which no recover catches).
func TestHostileProgramsRefused(t *testing.T) {
	const n = 1 << 20
	var nest strings.Builder
	nest.WriteString("program deep\n")
	for i := 0; i < 200_000; i++ {
		nest.WriteString("do i = 1, 2\n")
	}
	for i := 0; i < 200_000; i++ {
		nest.WriteString("enddo\n")
	}
	nest.WriteString("end\n")
	for name, c := range map[string]struct{ src, want string }{
		"parentheses": {"program p\nx = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "\nend\n",
			"line 2"},
		"chain": {"program p\nx = 1" + strings.Repeat("+1", n) + "\nend\n", "line 2"},
		"do":    {nest.String(), fmt.Sprintf("line %d", ir.MaxBlockDepth+2)},
	} {
		spec := &RunSpec{Program: c.src, Mode: "am", Ranks: 4}
		spec.Normalize()
		err := spec.Validate(0)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "deeper than 1000") {
			t.Errorf("%s: Validate = %.200v, want a nesting error on %s", name, err, c.want)
		}
	}
}

// TestCorpusWithinParseBounds: every registered app, every example
// program and the irgen corpus parse back from their printed form under
// the nesting bounds.
func TestCorpusWithinParseBounds(t *testing.T) {
	var progs []*ir.Program
	for _, name := range apps.Names() {
		progs = append(progs, apps.Registry()[name].Build())
	}
	files, err := filepath.Glob("../../examples/programs/*.ir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs = append(progs, p)
	}
	for seed := int64(0); seed < 200; seed++ {
		p, _ := irgen.Program(seed, irgen.Config{})
		progs = append(progs, p)
	}
	for _, p := range progs {
		if _, err := ir.Parse(p.String()); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestRankRule: a spec whose app cannot run on its rank count, or cannot
// be calibrated on its calibration rank count, is refused in words by
// Validate instead of reaching the app's input builder.
func TestRankRule(t *testing.T) {
	for _, c := range []struct {
		spec RunSpec
		want string // "" accepted
	}{
		{RunSpec{App: "nassp", Mode: "measured", Ranks: 8}, "NAS SP needs a square rank count (P = Q*Q), got 8"},
		{RunSpec{App: "nassp", Mode: "am", Ranks: 64, CalRanks: 8}, "calibration at 8 ranks: NAS SP needs a square rank count (P = Q*Q), got 8"},
		{RunSpec{App: "nassp", Mode: "am", Ranks: 64}, ""},
		{RunSpec{App: "nassp", Mode: "de", Ranks: 64, CalRanks: 8}, ""},
		{RunSpec{App: "nassp", Mode: "am", Ranks: 64, CalRanks: 8, TaskTimes: map[string]float64{"w_1": 1e-8}}, ""},
		{RunSpec{App: "sweep3d", Mode: "am", Ranks: 8}, ""},
	} {
		c.spec.Normalize()
		err := c.spec.Validate(0)
		if got := fmt.Sprint(err); c.want == "" && err != nil || c.want != "" && got != c.want {
			t.Errorf("%+v: Validate = %v, want %q", c.spec, err, c.want)
		}
	}
}
