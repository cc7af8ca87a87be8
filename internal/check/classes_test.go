package check

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/ir"
	"mpisim/internal/irgen"
)

// The class differential: filling the arena by rank classes (run with
// classFrom 0, so that every rank count records) must leave exactly what
// evaluating every rank leaves (classFrom perRank) — the arena, the
// channel and key tables, the bounds hits, the notes, the flags and the
// Result — since the passes read nothing else. classBound is the one
// note classes may add.
//
// What holds each guard site and each per-member redo: remove it alone
// (trace.go, or classes.go where named) and the case named fails — a
// golden case of TestClassesMatchPerRankOnGoldenCases, or a hand case.
//
//	ifStmt's decide(OpNE)                    golden app_sweep3d_16 (every app, from 4 ranks)
//	forStmt's decide(tZeroTrip)              hand "skipped loop"
//	forStmt's exact(lo), exact(hi)           hand "rank-long loop", TestClassBound
//	commStmt's exact(lo), exact(hi)          hand "section bounds"
//	flatIndex's subscript, subscript's exact hand "overrun on some"
//	subscript's range decides                hand "select overrun"
//	evalDims' exact                          hand "declared dimension"
//	run's exact(dummyElems)                  TestClassesGuardTheDummyBuffer
//	sum's exact(lo), exact(hi)               hand "sum bound"
//	sum's term                               hand "sum of a rank-dependent body"
//	eval's exact pair on a failed ApplyOp    hand "division by myid % 3"
//	eval's tCall term                        hand "select at a NaN subscript"
//	eval's select term                       hand "select after a store"
//	bcastStmt's exact(root)                  hand "rank-dependent root"
//	bcastStmt's decide(OpEQ): is it the root hand "bcast then branch"
//	comm's decide(OpSub)                     golden mutant_headtohead_4
//	comm's exact(peer)                       hand "fractional peer"
//	comm's patch of an absolute peer         hand "gather beside a ring"
//	instantiate's relative peer              golden app_sweep3d_16
//	instantiate's on-grid test               hand "off the grid on some" (panics)
//	instantiate's noch test                  golden app_sweep3d_4_unbound
//	instantiate's channel, its ev.rank       golden app_sweep3d_16
//	instantiate's hits, their h.rank         hand "overrun on some", golden mutant_shrunkbuffer_4
//	close's truncated test                   golden irgen_budget_000_4_maxops40
//	at's tSelect range test                  hand "select at a NaN subscript" (panics)
//	snapshot's known test                    hand "select of an element never stored"
//	snapshot's term-free test                hand "select from rank-dependent elements" (panics)
//	snapshot's uniformity test               hand "select across uniformity"
//	stored                                   hand "select after a store"
//	guard's dedupe being per class           golden app_sweep3d_16
//	open's clear(specIDs)                    golden app_sweep3d_16 (panics)
//	open's clear(snapOf)                     hand "snapshot left by a longer array"
func diffClasses(t *testing.T, name string, p *ir.Program, opts Options) {
	t.Helper()
	want, wctx, err := run(p, opts, perRank)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, gctx, err := run(p, opts, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if wctx == nil || wctx.traces == nil {
		return
	}
	if wctx.evals != opts.Ranks {
		t.Errorf("%s: the per-rank reference evaluated %d of %d ranks", name, wctx.evals, opts.Ranks)
	}
	boundText, _, _ := strings.Cut(classBound, "%")
	dropBound := func(ds []Diagnostic) []Diagnostic {
		var out []Diagnostic
		for _, d := range ds {
			if !(d.Pass == "trace" && strings.HasPrefix(d.Message, boundText)) {
				out = append(out, d)
			}
		}
		return out
	}
	w, g := wctx.traces, gctx.traces
	for _, f := range []struct {
		what      string
		got, want any
	}{
		{"ops", g.ops, w.ops}, {"win", g.win, w.win}, {"chans", g.chans, w.chans},
		{"hits", g.hits, w.hits}, {"notes", dropBound(g.notes), w.notes},
		{"flags", [3]bool{g.truncated, g.uncertain, g.mayColl}, [3]bool{w.truncated, w.uncertain, w.mayColl}},
		{"plan.keys", gctx.plan.keys, wctx.plan.keys},
		{"diagnostics", dropBound(got.Diags), want.Diags},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s (%d ranks, %d classes): %s differ between class and per-rank evaluation\n got %v\nwant %v",
				name, opts.Ranks, gctx.evals, f.what, f.got, f.want)
			return
		}
	}
}

func TestClassesMatchPerRankOnGoldenCases(t *testing.T) {
	for _, c := range goldenCases(t) {
		diffClasses(t, c.name, c.prog, c.opts)
	}
}

func TestClassesMatchPerRankOnGeneratedPrograms(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < seeds; seed++ {
		for ci, cfg := range []irgen.Config{{}, {MaxNests: 6, MaxTimeSteps: 12}} {
			p, inputs := irgen.Program(seed, cfg)
			for _, ranks := range []int{5, 16, 64, 257} {
				for _, maxOps := range []int{0, 80, 400} {
					for _, in := range []map[string]float64{inputs, nil} {
						name := fmt.Sprintf("irgen %d/cfg %d/maxops %d/bound %v", seed, ci, maxOps, in != nil)
						diffClasses(t, name, p, Options{Ranks: ranks, Inputs: in, MaxOps: maxOps})
					}
				}
			}
		}
	}
}

// TestClassCounts pins how far the apps fold: a guard made coarser or
// finer than it has to be shows here before it shows in a benchmark.
func TestClassCounts(t *testing.T) {
	tomcatv := func(ranks int) map[string]float64 { return apps.TomcatvInputs(256, 2) }
	for _, c := range []struct {
		app    string
		inputs func(int) map[string]float64
		ranks  int
		lo, hi int
	}{
		{"sweep3d", nil, 256, 9, 9}, {"sweep3d", nil, 1024, 9, 9}, {"sweep3d", nil, 4096, 9, 9},
		{"sample", nil, 256, 9, 9}, {"sample", nil, 1024, 9, 9}, {"sample", nil, 4096, 9, 9},
		{"tomcatv", nil, 256, 3, 3}, {"tomcatv", tomcatv, 1024, 3, 5},
		{"nassp", nil, 256, 9, 9}, {"nassp", nil, 1024, 9, 9}, {"nassp", nil, 4096, 16, 16},
	} {
		spec := apps.Registry()[c.app]
		inputs := spec.Default(c.ranks)
		if c.inputs != nil {
			inputs = c.inputs(c.ranks)
		}
		res, err := Run(spec.Build(), Options{Ranks: c.ranks, Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		if res.Classes < c.lo || res.Classes > c.hi {
			t.Errorf("%s at %d ranks: %d classes; want %d to %d", c.app, c.ranks, res.Classes, c.lo, c.hi)
		}
	}
}

// handCases isolate what the corpus does not: each is arranged so that
// one guard or one per-member redo is all that keeps a rank out of a
// class it does not belong to — and, but for the two that have a class
// per rank, so that ranks do share classes (classes, at 12 ranks).
var handCases = []struct {
	name    string
	classes int
	src     string
}{
	{"bcast then branch", 2, `program bcastbranch
  double precision A(4)
  x = (myid + 1)
  BCAST from 0: x
  if ((x > 0)) then
    SEND A(1:4) to (myid + 1) tag 1
  endif
  BARRIER
end`},
	{"rank-dependent root", 2, `program bcastroot
  x = 1
  BCAST from (myid % 2): x
end`},
	{"section bounds", 3, `program secbounds
  double precision A(8)
  n = (1 + (myid % 2) * 3)
  if ((myid > 0)) then
    SEND A(1:n) to 0 tag 1
  endif
  if ((myid == 0)) then
    do r = 1, (P - 1)
      RECV A(1:8) from r tag 1
    enddo
  endif
end`},
	{"gather beside a ring", 3, `program gatherring
  double precision A(4)
  SEND A(1:4) to ((myid + 1) % P) tag 1
  RECV A(1:4) from ((myid + P - 1) % P) tag 1
  if ((myid > 0)) then
    SEND A(1:4) to 0 tag 2
  endif
  if ((myid == 0)) then
    do r = 1, (P - 1)
      RECV A(1:4) from r tag 2
    enddo
  endif
end`},
	{"fractional peer", 7, `program halfpeer
  double precision A(4)
  SEND A(1:4) to (1 + (myid % 2) * 1.5) tag 1
end`},
	{"off the grid on some", 1, `program offgrid
  double precision A(4)
  SEND A(1:4) to (myid + 3) tag 1
  RECV A(1:4) from (myid - 3) tag 1
end`},
	{"overrun on some", 4, `program overrun
  double precision T(8)
  T((myid % 4) * 3 + 1) = 1
  BARRIER
end`},
	{"select overrun", 2, `program selectoverrun
  double precision A(8)
  double precision C(4)
  do c = 1, 4
    C(c) = 2
  enddo
  y = C(1)
  x = C(((myid % 5) + 1))
  SEND A(1:y) to 0 tag 1
end`},
	{"select at a NaN subscript", 3, `program selectnan
  double precision A(8)
  double precision C(4)
  do c = 1, 4
    C(c) = (min(c, 2) * 2)
  enddo
  n = C((sqrt(3 - myid) + 1))
  SEND A(1:n) to 0 tag 1
end`},
	{"select from rank-dependent elements", 4, `program selectdep
  double precision A(8)
  double precision C(2)
  C(1) = ((myid % 3) + 1)
  if ((myid >= 0)) then
    C(2) = 4
  endif
  n = C(((myid % 2) + 1))
  SEND A(1:n) to 0 tag 1
end`},
	{"select across uniformity", 2, `program selectuniform
  double precision A(8)
  double precision C(2)
  C(1) = 2
  if ((myid >= 0)) then
    C(2) = 2
  endif
  x = C(((myid % 2) + 1))
  BCAST from 0: x
  SEND A(1:x) to 0 tag 1
end`},
	{"select of an element never stored", 2, `program selectunknown
  double precision A(8)
  double precision C(2)
  if ((myid >= 0)) then
    C(1) = 0
  endif
  n = (C(((myid % 2) + 1)) + 2)
  SEND A(1:n) to 0 tag 1
end`},
	{"select after a store", 2, `program selectstale
  double precision A(8)
  double precision C(2)
  C(1) = 2
  C(2) = 2
  x = C(((myid % 2) + 1))
  C(2) = 6
  n = C(((myid % 2) + 1))
  SEND A(1:n) to 0 tag 1
end`},
	{"snapshot left by a longer array", 12, `program stalesnap
  double precision A(8)
  double precision C(((((myid + 1) % 2) + 1) * 4))
  x = C((((myid // 2) % 8) + 1))
  do c = 1, ((((myid + 1) % 2) + 1) * 4)
    C(c) = 2
  enddo
  y = C(1)
  if ((((myid + 1) % 2) == 1)) then
    z = C((((myid // 2) % 8) + 1))
  endif
  SEND A(1:y) to 0 tag 1
end`},
	{"division by myid % 3", 5, `program divzero
  double precision A(8)
  n = (6 / (myid % 3))
  SEND A(1:n) to ((myid + 1) % P) tag 1
  RECV A(1:8) from ((myid + P - 1) % P) tag 1
end`},
	{"sum bound", 5, `program sumbound
  double precision A(8)
  n = sum(i, 1, ((myid % 3) + 1), i)
  SEND A(1:n) to ((myid + 1) % P) tag 1
  RECV A(1:8) from ((myid + P - 1) % P) tag 1
end`},
	{"sum of a rank-dependent body", 3, `program sumbody
  double precision A(8)
  n = sum(i, 1, 2, ((myid % 3) * i))
  SEND A(1:(n + 1)) to 0 tag 1
end`},
	{"declared dimension", 2, `program dims
  double precision A((((myid % 2) + 1) * 4))
  SEND A(1:6) to 0 tag 1
end`},
	{"skipped loop", 2, `program skipped
  double precision T(8)
  t = 9
  do i = 1, (myid - 5)
    t = 1
  enddo
  T(t) = 1
  BARRIER
end`},
	{"rank-long loop", 12, `program ranklong
  do i = 1, myid
    BARRIER
  enddo
end`},
}

func TestClassesMatchPerRankOnHandCases(t *testing.T) {
	const ranks = 12
	for _, c := range handCases {
		p, err := ir.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		diffClasses(t, c.name, p, Options{Ranks: ranks})
		res, _, err := run(p, Options{Ranks: ranks}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Classes != c.classes {
			t.Errorf("%s: %d classes at %d ranks; the case is arranged for %d", c.name, res.Classes, ranks, c.classes)
		}
	}
}

// The compiler sizes the dummy buffer as the maximum of the very
// expressions the replaced messages are sized by, so no program reaches
// the guard on it; a buffer shrunk behind the compiler's back does.
func TestClassesGuardTheDummyBuffer(t *testing.T) {
	p, inputs := mutantApp(t, "tomcatv")
	_, ctx, err := run(p, Options{Ranks: 12, Inputs: inputs}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Compiled.DummyElems = ir.Add(ir.Mod(ir.S(ir.BuiltinMyID), ir.N(2)), ir.N(1))
	ctx.plan = compilePlan(ctx)
	want := buildTraces(ctx, perRank)
	ctx.plan = compilePlan(ctx)
	got := buildTraces(ctx, 0)
	if len(want.hits) == 0 || !reflect.DeepEqual(got.hits, want.hits) {
		t.Errorf("bounds hits under a rank-dependent dummy buffer:\n got %v\nwant %v", got.hits, want.hits)
	}
}

// A program with a class per rank stops recording at the bound, says so
// once, evaluates the remaining ranks one by one and still matches.
func TestClassBound(t *testing.T) {
	const ranks = maxClasses + 36
	p := ir.MustParse("program ranklong\n  do i = 1, myid\n    BARRIER\n  enddo\nend")
	diffClasses(t, "ranklong", p, Options{Ranks: ranks})
	res, ctx, err := run(p, Options{Ranks: ranks}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := strings.Cut(fmt.Sprintf(classBound, maxClasses, maxClasses, 0), ",")
	if notes := res.Text(Info); ctx.evals != ranks || strings.Count(notes, want) != 1 {
		t.Errorf("%d of %d ranks evaluated; want all, and once the note %q in:\n%s", ctx.evals, ranks, want, notes)
	}
}

// Past elemsSpilled distinct message sizes the counts spill to a table
// by operation, which a member's copy of its representative's trace
// carries too: the last size still overflows, on every rank, classes or
// not.
func TestSpilledSizesCompared(t *testing.T) {
	p := ir.MustParse(fmt.Sprintf(`program spill
  double precision A(%[1]d)
  do i = 1, %[1]d
    if ((myid < (P - 1))) then
      SEND A(1:i) to (myid + 1) tag 1
    endif
    if ((myid > 0)) then
      RECV A(1:i) from (myid - 1) tag 1
    endif
  enddo
  if ((myid < (P - 1))) then
    SEND A(1:%[1]d) to (myid + 1) tag 2
  endif
  if ((myid > 0)) then
    RECV A(1:%[2]d) from (myid - 1) tag 2
  endif
end`, elemsSpilled+64, elemsSpilled+63))
	opts := Options{Ranks: 4}
	diffClasses(t, "spill", p, opts)
	res, ctx, err := run(p, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("overflows the receive section of %d elems", elemsSpilled+63)
	if n := strings.Count(res.Text(Info), want); n != 3 || ctx.evals == opts.Ranks {
		t.Errorf("%d overflow errors %q in %d evaluations; want 3, in fewer than %d:\n%s", n, want, ctx.evals, opts.Ranks, res.Text(Info))
	}
}

// A partition opens no representative past the first that gives up, so
// that a give-up costs one evaluation: a rank whose stream reads
// received data, or one that runs past the budget, leaves every rank
// after it to run on its own, though ranks 2 on would share a class.
func TestPartitionStopsAtGiveUp(t *testing.T) {
	for _, c := range []struct{ name, src, why string }{
		{"received", `program received
  double precision A(4)
  if ((myid == 0)) then
    RECV A(1:4) from 1 tag 1
  endif
  if ((myid == 1)) then
    SEND A(1:4) to 0 tag 1
  endif
  BARRIER
end`, "the call stream of rank 0 depends on values known only as it runs"},
		{"budget", `program long
  x = 0
  if ((myid == 0)) then
    do i = 1, 2000000
      x = (x + 1)
    enddo
  endif
  BARRIER
end`, "rank 0 runs past the partition's budget"},
	} {
		rep, why, err := Partition(ir.MustParse(c.src), 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(why, c.why) || slices.ContainsFunc(rep, func(k int32) bool { return k >= 0 }) {
			t.Errorf("%s: representatives %v, %q; want none, %q", c.name, rep, why, c.why)
		}
	}
}
