package check

import (
	"slices"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/compiler"
	"mpisim/internal/ir"
)

// The mutation suite validates each pass against its defect class: a
// correct application is mutated to contain one injected bug and the
// corresponding pass must report an error the clean program lacked.

// editFirst rewrites the first statement matching pred anywhere in the
// body tree. A nil replacement deletes the statement.
func editFirst(body []ir.Stmt, pred func(ir.Stmt) bool, repl func(ir.Stmt) ir.Stmt) ([]ir.Stmt, bool) {
	for i, s := range body {
		if pred(s) {
			if r := repl(s); r != nil {
				body[i] = r
				return body, true
			}
			return append(body[:i:i], body[i+1:]...), true
		}
		switch x := s.(type) {
		case *ir.For:
			if b, ok := editFirst(x.Body, pred, repl); ok {
				x.Body = b
				return body, true
			}
		case *ir.If:
			if b, ok := editFirst(x.Then, pred, repl); ok {
				x.Then = b
				return body, true
			}
			if b, ok := editFirst(x.Else, pred, repl); ok {
				x.Else = b
				return body, true
			}
		case *ir.Timed:
			if b, ok := editFirst(x.Body, pred, repl); ok {
				x.Body = b
				return body, true
			}
		}
	}
	return body, false
}

func isRecv(s ir.Stmt) bool { _, ok := s.(*ir.Recv); return ok }
func isSend(s ir.Stmt) bool { _, ok := s.(*ir.Send); return ok }

// checkMutant runs the checker on the mutated program and returns the
// errors attributed to the given pass.
func checkMutant(t *testing.T, p *ir.Program, inputs map[string]float64, pass string) []Diagnostic {
	t.Helper()
	res, err := Run(p, Options{Ranks: appRanks, Inputs: inputs})
	if err != nil {
		t.Fatalf("check.Run: %v", err)
	}
	var out []Diagnostic
	for _, d := range res.Diags {
		if d.Pass == pass && d.Severity >= Error {
			out = append(out, d)
		}
	}
	return out
}

func mutantApp(t testing.TB, name string) (*ir.Program, map[string]float64) {
	t.Helper()
	spec, ok := apps.Registry()[name]
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	return spec.Build(), spec.Default(appRanks)
}

// mutantDroppedRecv deletes tomcatv's first receive.
func mutantDroppedRecv(t testing.TB) (*ir.Program, map[string]float64) {
	p, inputs := mutantApp(t, "tomcatv")
	body, ok := editFirst(p.Body, isRecv, func(ir.Stmt) ir.Stmt { return nil })
	if !ok {
		t.Fatal("tomcatv has no recv to drop")
	}
	p.Body = body
	return p, inputs
}

func TestMutantDroppedRecv(t *testing.T) {
	p, inputs := mutantDroppedRecv(t)
	diags := checkMutant(t, p, inputs, "sendrecv")
	if len(diags) == 0 {
		t.Fatal("dropping a recv produced no sendrecv error")
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "unmatched") || strings.Contains(d.Message, "never received") ||
			strings.Contains(d.Message, "no matching") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an unmatched-communication error, got:\n%v", diags)
	}
}

// mutantSkewedTag shifts the tag of tomcatv's first receive.
func mutantSkewedTag(t testing.TB) (*ir.Program, map[string]float64) {
	p, inputs := mutantApp(t, "tomcatv")
	_, ok := editFirst(p.Body, isRecv, func(s ir.Stmt) ir.Stmt {
		r := s.(*ir.Recv)
		r.Tag += 77
		return r
	})
	if !ok {
		t.Fatal("tomcatv has no recv to skew")
	}
	return p, inputs
}

func TestMutantSkewedTag(t *testing.T) {
	p, inputs := mutantSkewedTag(t)
	if diags := checkMutant(t, p, inputs, "sendrecv"); len(diags) == 0 {
		t.Fatal("skewing a recv tag produced no sendrecv error")
	}
}

// mutantDivergentCollective guards the app's first allreduce so it
// survives only on ranks 1..P-1: the branch-divergent defect, rank 0's
// definite sequence is shorter.
func mutantDivergentCollective(t testing.TB, name string) (*ir.Program, map[string]float64) {
	isColl := func(s ir.Stmt) bool { _, ok := s.(*ir.Allreduce); return ok }
	p, inputs := mutantApp(t, name)
	_, ok := editFirst(p.Body, isColl, func(s ir.Stmt) ir.Stmt {
		return &ir.If{Cond: ir.GT(ir.S(ir.BuiltinMyID), ir.N(0)), Then: ir.Block(s)}
	})
	if !ok {
		t.Fatalf("%s has no allreduce to wrap", name)
	}
	return p, inputs
}

func TestMutantDivergentCollective(t *testing.T) {
	for _, name := range []string{"tomcatv", "sweep3d"} {
		p, inputs := mutantDivergentCollective(t, name)
		if diags := checkMutant(t, p, inputs, "collective"); len(diags) == 0 {
			t.Errorf("%s: rank-divergent allreduce produced no collective error", name)
		}
	}
}

// mutantShrunkBuffer shrinks the array of tomcatv's first send to two
// rows.
func mutantShrunkBuffer(t testing.TB) (*ir.Program, map[string]float64) {
	p, inputs := mutantApp(t, "tomcatv")
	var victim string
	_, ok := editFirst(p.Body, isSend, func(s ir.Stmt) ir.Stmt {
		victim = s.(*ir.Send).Array
		return s
	})
	if !ok {
		t.Fatal("tomcatv has no send")
	}
	decl := p.Array(victim)
	if decl == nil {
		t.Fatalf("no declaration for sent array %q", victim)
	}
	decl.Dims[0] = ir.N(2)
	return p, inputs
}

func TestMutantShrunkBuffer(t *testing.T) {
	p, inputs := mutantShrunkBuffer(t)
	if diags := checkMutant(t, p, inputs, "bounds"); len(diags) == 0 {
		t.Fatal("shrinking a sent array to 2 rows produced no bounds error")
	}
}

// mutantRecvBeforeSendRing: every rank posts its receive before its
// send; with no message in flight no receive can complete, a certain
// deadlock with a full wait-for cycle. Peers use mod() wraparound so each
// send has a matching receive and sendrecv stays quiet — only the
// deadlock pass can catch this defect class.
func mutantRecvBeforeSendRing() *ir.Program {
	myid, np := ir.S(ir.BuiltinMyID), ir.S(ir.BuiltinP)
	left := ir.Mod(ir.Add(myid, ir.Sub(np, ir.N(1))), np)
	right := ir.Mod(ir.Add(myid, ir.N(1)), np)
	return &ir.Program{
		Name:   "ring",
		Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.N(8)}, Elem: 8}},
		Body: ir.Block(
			&ir.Recv{Src: left, Tag: 5, Array: "A", Section: ir.Sec(ir.N(1), ir.N(8))},
			&ir.Send{Dest: right, Tag: 5, Array: "A", Section: ir.Sec(ir.N(1), ir.N(8))},
		),
	}
}

// mutantHeadToHead: ranks exchange with their pair partner, both sending
// first. Legal under eager sends, stuck under rendezvous — the deadlock
// pass's warning-only case.
func mutantHeadToHead() *ir.Program {
	myid := ir.S(ir.BuiltinMyID)
	partner := ir.Sub(ir.Add(myid, ir.N(1)), ir.Mul(ir.N(2), ir.Mod(myid, ir.N(2))))
	return &ir.Program{
		Name:   "headtohead",
		Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.N(8)}, Elem: 8}},
		Body: ir.Block(
			&ir.Send{Dest: partner, Tag: 9, Array: "A", Section: ir.Sec(ir.N(1), ir.N(8))},
			&ir.Recv{Src: partner, Tag: 9, Array: "A", Section: ir.Sec(ir.N(1), ir.N(8))},
		),
	}
}

func TestMutantRecvBeforeSendRing(t *testing.T) {
	p := mutantRecvBeforeSendRing()
	res, err := Run(p, Options{Ranks: appRanks})
	if err != nil {
		t.Fatal(err)
	}
	var hit *Diagnostic
	for i, d := range res.Diags {
		if d.Pass == "deadlock" && d.Severity == Error {
			hit = &res.Diags[i]
		}
	}
	if hit == nil {
		t.Fatalf("recv-before-send ring produced no deadlock error:\n%s", res.Text(Info))
	}
	if !strings.Contains(hit.Message, "wait-for cycle") {
		t.Errorf("deadlock message lacks the wait-for cycle path: %s", hit.Message)
	}
	for _, d := range res.Diags {
		if d.Pass == "sendrecv" && d.Severity >= Error {
			t.Errorf("matched ring should have no sendrecv error: %s", d)
		}
	}
}

func TestMutantTamperedSlice(t *testing.T) {
	// A slicer that silently drops a structural variable must be caught
	// by the independent audit. Simulate the bug by deleting entries from
	// a correct compile result's relevant set: at least one deletion must
	// be detected (variables the re-derived closure does not require may
	// legitimately go unnoticed).
	p, _ := mutantApp(t, "tomcatv")
	res, err := compiler.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if missing := AuditSlice(res); len(missing) != 0 {
		t.Fatalf("clean compile already fails the audit: %v", missing)
	}
	names := make([]string, 0, len(res.Slice.Relevant))
	for name := range res.Slice.Relevant {
		names = append(names, name)
	}
	caught := 0
	for _, name := range names {
		delete(res.Slice.Relevant, name)
		missing := AuditSlice(res)
		res.Slice.Relevant[name] = true
		hit := false
		for _, m := range missing {
			if m == name {
				hit = true
			}
		}
		if hit {
			caught++
		}
	}
	if caught == 0 {
		t.Errorf("no deletion from the relevant set %v was detected", names)
	}
}

func TestMutantSlicedAwayDefinition(t *testing.T) {
	// Deleting the definition of a scalar the simplified program still
	// evaluates models a slicer that retained a use but dropped its
	// computation. undefinedUses must flag at least one such deletion.
	p, _ := mutantApp(t, "tomcatv")
	res, err := compiler.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := undefinedUses(res.Simplified); len(msgs) != 0 {
		t.Fatalf("clean simplified program already has undefined uses: %v", msgs)
	}
	caught := false
	for i, s := range res.Simplified.Body {
		a, ok := s.(*ir.Assign)
		if !ok || a.LHS.IsArray() {
			continue
		}
		mutant := *res.Simplified
		mutant.Body = append(append([]ir.Stmt{}, res.Simplified.Body[:i]...), res.Simplified.Body[i+1:]...)
		for _, msg := range undefinedUses(&mutant) {
			if strings.Contains(msg, `"`+a.LHS.Name+`"`) {
				caught = true
			}
		}
	}
	if !caught {
		t.Error("no deleted top-level definition was flagged as an undefined use")
	}
}

// payloadProgram sends A from rank 0 into B on rank 1, and rank 1 then
// branches on B(1) around sends: the sent array feeds parallel structure
// through the payload alone, under another name.
const payloadProgram = `program payload
  double precision A(4)
  double precision B(4)
  do i = 1, 4
    A(i) = (myid + 1)
  enddo
  if ((myid == 0)) then
    SEND A(1:4) to 1 tag 1
  endif
  if ((myid == 1)) then
    RECV B(1:4) from 0 tag 1
  endif
  do it = 1, 3
    if ((B(1) > 0)) then
      SEND A(1:1) to 0 tag 2
    endif
  enddo
end
`

// TestAuditCatchesDroppedPayload removes the sent array from the slice,
// as a slicer without the payload rule computes it: the audit must name
// it.
func TestAuditCatchesDroppedPayload(t *testing.T) {
	p, err := ir.Parse(payloadProgram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if missing := AuditSlice(res); len(missing) != 0 {
		t.Fatalf("clean compile already fails the audit: %v", missing)
	}
	delete(res.Slice.Relevant, "A")
	if missing := AuditSlice(res); !slices.Equal(missing, []string{"A"}) {
		t.Fatalf("audit of a slice without the sent array: %v, want [A]", missing)
	}
}
