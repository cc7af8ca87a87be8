package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mpisim/internal/mpi"
	"mpisim/internal/tracein"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this binary's behaviour (only for a deliberate change of CLI output)")

// goldenCase is one mpisim invocation whose stdout, stderr, exit code
// and written files are pinned byte for byte. "$OUT" in an argument is
// a per-case scratch directory; every file the run leaves there is part
// of the golden record.
type goldenCase struct {
	name string
	args string
}

const (
	ringTrace  = "examples/traces/ring.jsonl"
	faninTrace = "examples/traces/fanin.jsonl"
	fixtures   = "cmd/mpisim/testdata/"
)

// goldenCases is the CLI's behavioural oracle: every app in every mode,
// every example program and trace, and each option that changes what is
// predicted or how it is reported. Small rank counts keep the whole
// matrix to a few seconds.
func goldenCases() []goldenCase {
	var cs []goldenCase
	add := func(name, args string) { cs = append(cs, goldenCase{name, args}) }

	ranks := map[string]string{"nassp": "9", "sample": "8", "sweep3d": "8", "tomcatv": "4"}
	for _, app := range []string{"nassp", "sample", "sweep3d", "tomcatv"} {
		for _, mode := range []string{"measured", "de", "am"} {
			args := fmt.Sprintf("-app %s -mode %s -ranks %s -runjson $OUT/run.json", app, mode, ranks[app])
			if mode == "de" {
				args += " -record $OUT/run.trace"
			}
			add("app_"+app+"_"+mode, args)
		}
	}
	for _, prog := range []string{"ring", "stencil1d", "bcastpipe"} {
		add("file_"+prog+"_de", "-file examples/programs/"+prog+".ir -mode de -ranks 8 -inputs N=32,STEPS=2 -runjson $OUT/run.json")
	}
	add("file_ring_am", "-file examples/programs/ring.ir -mode am -ranks 8 -inputs N=32,STEPS=2 -runjson $OUT/run.json -record $OUT/run.trace")

	add("tasktimes", "-app sweep3d -mode am -ranks 8 -tasktimes "+fixtures+"sweep3d.tt -runjson $OUT/run.json")
	add("calranks", "-app sweep3d -mode am -ranks 16 -cal-ranks 4 -runjson $OUT/run.json")
	add("torus_roundrobin", "-app sweep3d -mode am -ranks 16 -topology torus:dims=4x4 -placement roundrobin -v -runjson $OUT/run.json")
	add("netjson", "-app sample -mode de -ranks 8 -netjson examples/networks/ring8.json -runjson $OUT/run.json")
	add("machine_inputs", "-app tomcatv -mode am -ranks 4 -machine origin2000 -inputs N=64,ITER=3 -runjson $OUT/run.json")
	add("faults_seed", "-app sweep3d -mode de -ranks 8 -faults "+fixtures+"loss.json -seed 7 -v -runjson $OUT/run.json")
	add("budget_abort", "-app sweep3d -mode am -ranks 16 -budget 500 -runjson $OUT/run.json -record $OUT/run.trace")
	add("timebudget_abort", "-app sweep3d -mode de -ranks 8 -timebudget 0.0005 -runjson $OUT/run.json")
	add("watchdog_deadlock", "-file "+fixtures+"deadlock.ir -mode de -ranks 4 -nocheck -watchdog 1000 -runjson $OUT/run.json")
	add("memlimit", "-app tomcatv -mode de -ranks 4 -memlimit 1000")
	add("reports", "-app sweep3d -mode de -ranks 4 -v -matrix -timeline -dtg")
	add("check", "-app sweep3d -mode am -ranks 4 -check")
	add("check_refuses", "-file "+fixtures+"deadlock.ir -mode de -ranks 4 -check")
	add("nocheck", "-app sample -mode am -ranks 4 -nocheck")
	add("metrics_am", "-app sweep3d -mode am -ranks 4 -metrics -runjson $OUT/run.json")
	add("profilefolded", "-app sweep3d -mode am -ranks 4 -profilefolded $OUT/run.folded")
	add("listmachines", "-listmachines")

	add("err_app", "-app nosuch")
	add("err_mode", "-app sample -mode fast")
	add("err_machine", "-app sample -machine cray")
	add("err_xranks", "-app sample -xranks 8")
	add("err_netjson_topology", "-app sample -netjson examples/networks/ring8.json -topology bus")
	add("err_ranks", "-app sample -ranks 0")
	add("err_nassp_ranks", "-app nassp -ranks 8")

	add("tracein_ring", "-tracein "+ringTrace+" -runjson $OUT/run.json")
	add("tracein_fanin", "-tracein "+faninTrace+" -runjson $OUT/run.json")
	add("tracein_ring_x32", "-tracein "+ringTrace+" -xranks 32 -runjson $OUT/run.json")
	add("tracein_fanin_x32", "-tracein "+faninTrace+" -xranks 32 -inputs N=128 -runjson $OUT/run.json")
	add("tracein_machine", "-tracein "+ringTrace+" -machine cluster -runjson $OUT/run.json")
	add("tracein_torus_rerecord", "-tracein "+ringTrace+" -xranks 16 -topology torus:dims=4x4 -v -record $OUT/run.trace")
	add("tracein_faults_timebudget", "-tracein "+faninTrace+" -faults "+fixtures+"loss.json -timebudget 0.001 -runjson $OUT/run.json")
	add("tracein_x32_budget", "-tracein "+faninTrace+" -xranks 32 -budget 100 -runjson $OUT/run.json")
	add("tracein_noapp", "-tracein "+fixtures+"noapp.jsonl -runjson $OUT/run.json")
	add("tracein_err_xranks", "-tracein "+ringTrace+" -xranks 12")
	// A wildcard receive is exact on one host worker and refused on more.
	add("tracein_wildcard_hosts1", "-tracein "+fixtures+"wildcard.jsonl -hosts 1 -runjson $OUT/run.json")
	add("tracein_wildcard_hosts2", "-tracein "+fixtures+"wildcard.jsonl -hosts 2 -runjson $OUT/run.json")

	// Options that do not apply to a replay.
	add("tracein_tasktimes", "-tracein "+ringTrace+" -tasktimes "+fixtures+"sweep3d.tt")
	add("tracein_calranks", "-tracein "+ringTrace+" -cal-ranks 4")
	add("tracein_memlimit", "-tracein "+ringTrace+" -memlimit 1000")
	add("tracein_check", "-tracein "+ringTrace+" -check")
	add("tracein_nocheck", "-tracein "+ringTrace+" -nocheck")
	add("tracein_file", "-tracein "+ringTrace+" -file examples/programs/ring.ir")
	add("tracein_app", "-tracein "+ringTrace+" -app sweep3d")
	add("tracein_mode", "-tracein "+ringTrace+" -mode de")
	return cs
}

// wallDependent matches the one self-metric derived from host time.
var wallDependent = regexp.MustCompile(`(?m)^(sim_wall_ns_per_virtual_s) .*$`)

// runGolden executes one case in a child process and renders everything
// observable as one sectioned document.
func runGolden(t *testing.T, exe string, c goldenCase) []byte {
	t.Helper()
	out := t.TempDir()
	var args []string
	for _, a := range strings.Fields(c.args) {
		args = append(args, strings.ReplaceAll(a, "$OUT", out))
	}
	stdout, stderr, code := mpisimChild(t, exe, args...)
	scrub := func(b []byte) []byte {
		b = bytes.ReplaceAll(b, []byte(out), []byte("$OUT"))
		return wallDependent.ReplaceAll(b, []byte("$1 <host time>"))
	}
	var doc bytes.Buffer
	section := func(name string, body []byte) {
		fmt.Fprintf(&doc, "==== %s ====\n", name)
		doc.Write(body)
		if len(body) > 0 && body[len(body)-1] != '\n' {
			doc.WriteString("\n==== (no trailing newline) ====\n")
		}
	}
	section("args", []byte("mpisim "+c.args+"\n"))
	section("exit", []byte(fmt.Sprintf("%d\n", code)))
	section("stdout", scrub(stdout))
	section("stderr", scrub(stderr))
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(out, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		section(e.Name(), body)
	}
	return doc.Bytes()
}

// TestGoldenCLI holds the CLI to its recorded behaviour. The corpus was
// generated by the binary that preceded the core.Prepare/Run pipeline,
// so it is also the proof that the pipeline predicts what the
// hand-written run sequences predicted.
func TestGoldenCLI(t *testing.T) {
	exe := self(t)
	if alt := os.Getenv("MPISIM_GOLDEN_EXE"); alt != "" {
		exe = alt // regenerate from another build, e.g. the parent commit's
	}
	dir := filepath.Join("testdata", "golden")
	seen := map[string]bool{}
	for _, c := range goldenCases() {
		c := c
		if seen[c.name] {
			t.Fatalf("duplicate golden case %q", c.name)
		}
		seen[c.name] = true
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := runGolden(t, exe, c)
			path := filepath.Join(dir, c.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s:\n%s", path, firstDiff(want, got))
			}
		})
	}
	if *update {
		return
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !seen[strings.TrimSuffix(filepath.Base(f), ".golden")] {
			t.Errorf("stale golden file %s (no case produces it)", f)
		}
	}
}

// recordedLine is what -record prints about the trace it wrote.
var recordedLine = regexp.MustCompile(`trace recorded to \S+ \((\d+) ranks in (\d+) classes, (\d+) events\)`)

// TestGoldenTraceSections holds the corpus's recorded traces (the
// run.trace sections): each parses, is already Write's canonical form,
// and has the ranks, classes and events its "trace recorded" line
// counts. With MPISIM_GOLDEN_PARENT naming another corpus directory —
// the parent commit's, unpacked with git archive — each section there
// must parse to the same header and the same per-rank calls, bit for
// bit: how a change of trace format shows it moved no call.
func TestGoldenTraceSections(t *testing.T) {
	parent := os.Getenv("MPISIM_GOLDEN_PARENT")
	section := func(path string) []byte {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, body, ok := bytes.Cut(doc, []byte("==== run.trace ====\n"))
		if !ok {
			return nil
		}
		if end := bytes.Index(body, []byte("\n==== ")); end >= 0 {
			body = body[:end+1]
		}
		return body
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	traces := 0
	for _, f := range files {
		text := section(f)
		if text == nil {
			continue
		}
		traces++
		tr, err := tracein.ParseBytes(text)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		var canon bytes.Buffer
		if err := tracein.Write(&canon, tr); err != nil || !bytes.Equal(canon.Bytes(), text) {
			t.Errorf("%s: the recorded trace is not Write's form of itself (%v)", f, err)
		}
		doc, _ := os.ReadFile(f)
		m := recordedLine.FindSubmatch(doc)
		if m == nil || string(m[1]) != strconv.Itoa(tr.Header.Ranks) || string(m[2]) != strconv.Itoa(tr.Classes()) ||
			string(m[3]) != strconv.Itoa(tr.Events()) {
			t.Errorf("%s: %q does not count %d ranks in %d classes, %d events", f, m, tr.Header.Ranks, tr.Classes(), tr.Events())
		}
		if parent == "" {
			continue
		}
		old, err := tracein.ParseBytes(section(filepath.Join(parent, filepath.Base(f))))
		if err != nil {
			t.Errorf("%s in %s: %v", filepath.Base(f), parent, err)
			continue
		}
		if !reflect.DeepEqual(old.Header, tr.Header) {
			t.Errorf("%s: the header differs from %s's", f, parent)
		}
		for r := 0; r < tr.Header.Ranks; r++ {
			if !sameBits(old.CallsOf(r), tr.CallsOf(r)) {
				t.Errorf("%s: rank %d's calls differ from %s's", f, r, parent)
			}
		}
	}
	if traces != 6 {
		t.Errorf("the corpus holds %d recorded traces, want the six -record cases", traces)
	}
}

// sameBits compares call sequences with seconds as bit patterns.
func sameBits(a, b []mpi.Call) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Sec) != math.Float64bits(y.Sec) {
			return false
		}
		x.Sec, y.Sec = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// firstDiff reports the first differing line with a little context.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return "(identical lines; length differs)"
}
