package tables

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/core"
	"mpisim/internal/machine"
)

// testCfg bounds experiment size so the suite stays fast.
func testCfg() Config { return Config{RankCap: 16} }

func TestRenderFigure(t *testing.T) {
	f := &Figure{
		ID: "figX", Title: "demo", XLabel: "p", YLabel: "t",
		Series: []Series{
			{Name: "a", Points: []Point{{4, 1.5}, {8, 2.5}}},
			{Name: "b", Points: []Point{{4, 3.0}}},
		},
		Notes: []string{"hello"},
	}
	out := f.Render()
	for _, want := range []string{"figX: demo", "p", "a", "b", "1.5", "note: hello", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if f.Name() != "figX" {
		t.Fatal("Name wrong")
	}
}

func TestRenderTable(t *testing.T) {
	tb := &Table{ID: "tableX", Title: "demo", Header: []string{"a", "b"},
		Rows: [][]string{{"x", "y"}}}
	out := tb.Render()
	if !strings.Contains(out, "tableX") || !strings.Contains(out, "x  y") {
		t.Fatalf("table render:\n%s", out)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99", testCfg()); err == nil {
		t.Fatal("expected unknown experiment error")
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		ids[e.ID] = true
	}
	for _, want := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

// seriesByName finds a series in a figure.
func seriesByName(t *testing.T, f *Figure, name string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s: no series %q", f.ID, name)
	return Series{}
}

// maxRelGap returns the maximum relative |a-b|/b across common x.
func maxRelGap(a, b Series) float64 {
	worst := 0.0
	for _, pa := range a.Points {
		for _, pb := range b.Points {
			if pa.X == pb.X && pb.Y != 0 {
				d := (pa.Y - pb.Y) / pb.Y
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

func TestFigure3Shape(t *testing.T) {
	f, err := Figure3(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	am := seriesByName(t, f, "MPI-SIM-AM")
	meas := seriesByName(t, f, "measured")
	if len(am.Points) == 0 {
		t.Fatal("empty AM series")
	}
	if gap := maxRelGap(am, meas); gap > 0.17 {
		t.Errorf("AM error %.3f > 17%%\n%s", gap, f.Render())
	}
	de := seriesByName(t, f, "MPI-SIM-DE")
	if gap := maxRelGap(de, meas); gap > 0.10 {
		t.Errorf("DE error %.3f > 10%%", gap)
	}
	// Time must decrease with processors (strong scaling).
	if meas.Points[0].Y <= meas.Points[len(meas.Points)-1].Y {
		t.Errorf("no strong scaling: %v", meas.Points)
	}
}

func TestFigure4Shape(t *testing.T) {
	f, err := Figure4(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	gap := maxRelGap(seriesByName(t, f, "MPI-SIM-AM"), seriesByName(t, f, "measured"))
	if gap > 0.17 {
		t.Errorf("Sweep3D AM error %.3f > 17%%\n%s", gap, f.Render())
	}
}

func TestFigures5And6Shape(t *testing.T) {
	f5, err := Figure5(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if gap := maxRelGap(seriesByName(t, f5, "MPI-SIM-AM"), seriesByName(t, f5, "measured")); gap > 0.10 {
		t.Errorf("SP class A AM error %.3f\n%s", gap, f5.Render())
	}
	f6, err := Figure6(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if gap := maxRelGap(seriesByName(t, f6, "MPI-SIM-AM"), seriesByName(t, f6, "measured")); gap > 0.17 {
		t.Errorf("SP class C AM error %.3f\n%s", gap, f6.Render())
	}
	// Class C runs much longer than class A at equal rank counts.
	a := seriesByName(t, f5, "measured").Points[0]
	c := seriesByName(t, f6, "measured").Points[0]
	if c.Y < 3*a.Y {
		t.Errorf("class C (%g) not much longer than class A (%g)", c.Y, a.Y)
	}
}

func TestFigure7AllErrorsBounded(t *testing.T) {
	f, err := Figure7(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("want 3 apps, got %d", len(f.Series))
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Y > 17 {
				t.Errorf("%s at %g procs: %.1f%% > 17%%", s.Name, p.X, p.Y)
			}
		}
	}
}

func TestFigures8And9Shape(t *testing.T) {
	f8, err := Figure8(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Series) != 4 {
		t.Fatalf("fig8 series = %d", len(f8.Series))
	}
	f9, err := Figure9(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Errors must be small at the computation-dominated end (small
	// ratio) for both patterns.
	for _, s := range f9.Series {
		lo := s.Points[0]
		for _, p := range s.Points {
			if p.X < lo.X {
				lo = p
			}
		}
		if abs(lo.Y) > 6 {
			t.Errorf("%s: error at smallest ratio = %.2f%%\n%s", s.Name, lo.Y, f9.Render())
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestTable1Shape(t *testing.T) {
	tb, err := Table1(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	out := tb.Render()
	for _, want := range []string{"Sweep3D", "SP, class A", "Tomcatv", "reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q:\n%s", want, out)
		}
	}
	// Every row must show a large reduction (paper: 5x-2000x).
	for _, row := range tb.Rows {
		red := row[len(row)-1]
		if strings.HasPrefix(red, "0x") || red == "1x" || red == "2x" || red == "3x" || red == "4x" {
			t.Errorf("reduction too small in row %v", row)
		}
	}
}

func TestFigure10MemoryWall(t *testing.T) {
	cfg := Config{RankCap: 490}
	f, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	am := seriesByName(t, f, "MPI-SIM-AM")
	de := seriesByName(t, f, "MPI-SIM-DE")
	// AM reaches rank counts DE cannot.
	if len(am.Points) <= len(de.Points) {
		t.Fatalf("AM (%d pts) must outscale DE (%d pts)\n%s",
			len(am.Points), len(de.Points), f.Render())
	}
	maxAM := am.Points[len(am.Points)-1].X
	maxDE := de.Points[len(de.Points)-1].X
	if maxAM <= maxDE {
		t.Fatalf("AM max ranks %g <= DE max ranks %g", maxAM, maxDE)
	}
	// Validation at the small end.
	if gap := maxRelGap(am, seriesByName(t, f, "measured")); gap > 0.17 {
		t.Errorf("AM error %.3f > 17%%", gap)
	}
}

func TestFigure11MemoryWall(t *testing.T) {
	cfg := Config{RankCap: 196}
	f, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	am := seriesByName(t, f, "MPI-SIM-AM")
	de := seriesByName(t, f, "MPI-SIM-DE")
	if am.Points[len(am.Points)-1].X <= de.Points[len(de.Points)-1].X {
		t.Fatalf("AM must outscale DE\n%s", f.Render())
	}
}

func TestFigure12DESlowerAMFaster(t *testing.T) {
	f, err := Figure12(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	app := seriesByName(t, f, "application (measured)")
	de := seriesByName(t, f, "MPI-SIM-DE")
	am := seriesByName(t, f, "MPI-SIM-AM")
	for i := range app.Points {
		if de.Points[i].Y <= app.Points[i].Y {
			t.Errorf("DE (%g) not slower than app (%g) at %g procs",
				de.Points[i].Y, app.Points[i].Y, app.Points[i].X)
		}
		if am.Points[i].Y >= app.Points[i].Y {
			t.Errorf("AM (%g) not faster than app (%g) at %g procs",
				am.Points[i].Y, app.Points[i].Y, app.Points[i].X)
		}
	}
}

func TestFigure13Shape(t *testing.T) {
	f, err := Figure13(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	am := seriesByName(t, f, "MPI-SIM-AM")
	app := seriesByName(t, f, "application (measured)")
	last := len(am.Points) - 1
	if am.Points[last].Y >= app.Points[last].Y {
		t.Errorf("Tomcatv AM (%g) not faster than app (%g)",
			am.Points[last].Y, app.Points[last].Y)
	}
}

func TestFigures14And15Shape(t *testing.T) {
	f14, err := Figure14(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	de := seriesByName(t, f14, "MPI-SIM-DE")
	am := seriesByName(t, f14, "MPI-SIM-AM")
	// Both scale down with hosts; AM cheaper than DE throughout.
	for i := range de.Points {
		if am.Points[i].Y >= de.Points[i].Y {
			t.Errorf("AM not cheaper than DE at %g hosts", de.Points[i].X)
		}
	}
	if de.Points[0].Y <= de.Points[len(de.Points)-1].Y {
		t.Errorf("DE did not speed up with hosts:\n%s", f14.Render())
	}
	f15, err := Figure15(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	sp := f15.Series[0]
	last := sp.Points[len(sp.Points)-1]
	if last.Y <= 2 || last.Y > 64 {
		t.Errorf("speedup at 64 hosts = %g, want in (2, 64]", last.Y)
	}
	// Speedup must be monotone nondecreasing in this regime... allow
	// saturation but not collapse below half the peak.
	peak := 0.0
	for _, p := range sp.Points {
		if p.Y > peak {
			peak = p.Y
		}
	}
	if last.Y < peak/2 {
		t.Errorf("speedup collapsed: last=%g peak=%g", last.Y, peak)
	}
}

func TestFigure16Shape(t *testing.T) {
	f, err := Figure16(Config{RankCap: 196})
	if err != nil {
		t.Fatal(err)
	}
	de := seriesByName(t, f, "MPI-SIM-DE (modeled)")
	am := seriesByName(t, f, "MPI-SIM-AM")
	for i := range de.Points {
		if am.Points[i].Y >= de.Points[i].Y {
			t.Errorf("AM not cheaper than DE at %g targets\n%s", de.Points[i].X, f.Render())
		}
	}
	// Both grow with target count.
	if de.Points[len(de.Points)-1].Y <= de.Points[0].Y {
		t.Errorf("DE runtime did not grow with targets")
	}
}

func TestAblationShape(t *testing.T) {
	tb, err := Ablation(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d\n%s", len(tb.Rows), tb.Render())
	}
	// Row order: paper, per-leaf, no-slice, abstract-comm, DE, static.
	parseErr := func(row []string) float64 {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSuffix(row[3], "%"), "%f", &v); err != nil {
			t.Fatalf("bad error cell %q", row[3])
		}
		if v < 0 {
			v = -v
		}
		return v
	}
	paper := parseErr(tb.Rows[0])
	noSlice := parseErr(tb.Rows[2])
	if paper > 5 {
		t.Errorf("paper-variant error %.1f%% too large\n%s", paper, tb.Render())
	}
	if noSlice < 10*paper {
		t.Errorf("slicing ablation shows no effect: paper %.2f%%, no-slice %.2f%%", paper, noSlice)
	}
}

func TestFormattingHelpers(t *testing.T) {
	if trimFloat(64) != "64" || trimFloat(2.5) != "2.5" {
		t.Fatal("trimFloat wrong")
	}
	if fmtG(0.00012345) != "0.0001234" && fmtG(0.00012345) != "0.0001235" {
		t.Fatalf("fmtG = %q", fmtG(0.00012345))
	}
	if roundSig(123.456, 2) != 120 || roundSig(0.0123, 2) != 0.012 || roundSig(0, 3) != 0 {
		t.Fatalf("roundSig wrong: %v %v", roundSig(123.456, 2), roundSig(0.0123, 2))
	}
	if fmtBytes(2048) != "2.00KB" || fmtBytes(3<<20) != "3.00MB" ||
		fmtBytes(5<<30) != "5.00GB" || fmtBytes(7) != "7B" {
		t.Fatal("fmtBytes wrong")
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Config{}
	if cfg.pick(1, 2) != 1 || (Config{Full: true}).pick(1, 2) != 2 {
		t.Fatal("pick wrong")
	}
	got := Config{RankCap: 10}.ranksFor([]int{4, 8, 16}, nil)
	if len(got) != 2 || got[1] != 8 {
		t.Fatalf("ranksFor = %v", got)
	}
	// Cap below all entries keeps the smallest configuration.
	got = Config{RankCap: 2}.ranksFor([]int{4, 8}, nil)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("ranksFor fallback = %v", got)
	}
}

// TestPaperScaleSweepBlockDepth runs the 4-rank calibration and direct
// execution of the two paper-scale Sweep3D configurations (-full): Fig.
// 10's 4x4x255 cells per processor and the fixed 150^3 total of Figs. 4,
// 14 and 15. A block depth that does not divide the k extent sweeps past
// it and faults in both.
func TestPaperScaleSweepBlockDepth(t *testing.T) {
	t.Parallel() // ~15 s beside the other figures' tests
	for kt, want := range map[int]int{255: 51, 150: 30, 1000: 250, 64: 16, 36: 9, 3: 1} {
		if got := sweepBlockDepth(kt); got != want {
			t.Errorf("sweepBlockDepth(%d) = %d, want %d", kt, got, want)
		}
	}
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	npx, npy := apps.ProcGrid(4)
	for name, inputs := range map[string]map[string]float64{
		"fig10": apps.Sweep3DInputs(4, 4, 255, sweepBlockDepth(255), npx, npy),
		"fig4":  sweepFixedTotalInputs(150, 4),
	} {
		r, err := newRunner(apps.Sweep3D(), machine.IBMSP(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Calibrate(4, inputs); err != nil {
			t.Errorf("%s calibration: %v", name, err)
		}
		if _, err := r.Run(core.DirectExec, 4, inputs); err != nil {
			t.Errorf("%s direct execution: %v", name, err)
		}
	}
}

// Table 1's Sweep3D rows must be runnable at paper scale: a block depth
// that does not divide KT sweeps past the k extent (the -full 4x4x255
// row once took MK = 63).
func TestTable1SweepBlockDepthDividesKT(t *testing.T) {
	for _, cfg := range []Config{{}, {Full: true}} {
		for _, rw := range table1Rows(cfg) {
			if rw.prog != "sweep3d" {
				continue
			}
			kt, mk := rw.inputs["KT"], rw.inputs["MK"]
			if mk < 1 || math.Mod(kt, mk) != 0 {
				t.Errorf("%s (full %v): KT=%g, MK=%g; MK must divide KT", rw.label, cfg.Full, kt, mk)
			}
		}
	}
}
