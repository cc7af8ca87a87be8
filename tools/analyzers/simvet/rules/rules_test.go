package rules

import (
	"strings"
	"testing"

	"mpisim/tools/analyzers/simvet/vetcore"
)

// analyzeBody typechecks the stub plus one fixture body and returns the
// surviving diagnostics (default options).
func analyzeBody(t *testing.T, body string) []vetcore.Diagnostic {
	t.Helper()
	return analyzeBodyOpts(t, vetcore.Options{}, body)
}

func analyzeBodyOpts(t *testing.T, opts vetcore.Options, body string) []vetcore.Diagnostic {
	t.Helper()
	return runSuite(t, opts, map[string]string{
		"sim_stub.go": readStub(t),
		"fixture.go":  "package sim\n\n" + body,
	})
}

func wantRules(t *testing.T, diags []vetcore.Diagnostic, rules ...string) {
	t.Helper()
	if len(diags) != len(rules) {
		t.Fatalf("want %d diagnostics %v, got %v", len(rules), rules, diags)
	}
	for i, r := range rules {
		if diags[i].Rule != r {
			t.Errorf("diagnostic %d: want rule %s, got %v", i, r, diags[i])
		}
	}
}

// --- msgown: migrated standalone-analyzer cases ---

func TestMsgOwnReadAfterFree(t *testing.T) {
	diags := analyzeBody(t, `
func bad(p *Proc, m *Message) int64 {
	p.FreeMessage(m)
	return m.Size
}
`)
	wantRules(t, diags, "msgown")
	if !strings.Contains(diags[0].Message, "FreeMessage") {
		t.Errorf("diagnostic does not name the consumer: %s", diags[0].Message)
	}
}

func TestMsgOwnReadAfterSendAsPayload(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func bad(p *Proc, m *Message) int64 {
	p.Send(1, m, m.Size)
	return m.Size
}
`), "msgown")
}

func TestMsgOwnCleanConsumeLast(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func good(p *Proc) (int64, interface{}) {
	m := p.RecvSrcTag(0, 1)
	size, data := m.Size, m.Payload
	p.FreeMessage(m)
	return size, data
}
`))
}

func TestMsgOwnReassignmentRestoresOwnership(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func good(p *Proc) int64 {
	m := p.RecvSrcTag(0, 1)
	p.FreeMessage(m)
	m = p.RecvSrcTag(0, 2)
	total := m.Size
	p.FreeMessage(m)
	return total
}
`))
}

func TestMsgOwnDoubleFree(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func bad(p *Proc, m *Message) {
	p.FreeMessage(m)
	p.FreeMessage(m)
}
`), "msgown")
}

func TestMsgOwnOtherTypesIgnored(t *testing.T) {
	wantRules(t, analyzeBody(t, `
type memo struct{ n int }

func ok(p *Proc, m *memo) int {
	p.Send(1, m, 0)
	return m.n
}
`))
}

func TestMsgOwnForward(t *testing.T) {
	diags := analyzeBody(t, `
func bad(p *Proc, m *Message) int64 {
	p.Forward(m, 1, 0)
	return m.Size
}
`)
	wantRules(t, diags, "msgown")
	if !strings.Contains(diags[0].Message, "Forward") {
		t.Errorf("diagnostic does not name the consumer: %s", diags[0].Message)
	}
}

// --- msgown: the loop flow-insensitivity gap, now closed ---

func TestMsgOwnLoopCarriedDoubleFree(t *testing.T) {
	diags := analyzeBody(t, `
func bad(p *Proc, n int) {
	m := p.RecvSrcTag(0, 1)
	for i := 0; i < n; i++ {
		p.FreeMessage(m)
	}
}
`)
	wantRules(t, diags, "msgown")
	if !strings.Contains(diags[0].Message, "previous loop iteration") {
		t.Errorf("loop-carried finding not labeled as such: %s", diags[0].Message)
	}
}

func TestMsgOwnLoopBackwardUse(t *testing.T) {
	diags := analyzeBody(t, `
func bad(p *Proc, n int) int64 {
	var total int64
	m := p.RecvSrcTag(0, 1)
	for i := 0; i < n; i++ {
		total += m.Size
		p.FreeMessage(m)
	}
	return total
}
`)
	if len(diags) == 0 {
		t.Fatal("backward-jumping use in a loop not reported")
	}
	for _, d := range diags {
		if d.Rule != "msgown" {
			t.Errorf("unexpected rule: %v", d)
		}
	}
}

func TestMsgOwnLoopFreshReceiveClean(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func good(p *Proc, n int) int64 {
	var total int64
	for i := 0; i < n; i++ {
		m := p.RecvSrcTag(0, 1)
		total += m.Size
		p.FreeMessage(m)
	}
	return total
}
`))
}

// --- contsafe ---

func TestContSafeNoArm(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func h(p *Proc, m *Message) Cont {
	p.FreeMessage(m)
	return h
}
`), "contarm")
}

func TestContSafeTwoArms(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func h(p *Proc, m *Message) Cont {
	p.WaitRecv(0, 0)
	p.WaitSleep(1)
	return h
}
`), "contarm")
}

func TestContSafeMayNotArm(t *testing.T) {
	diags := analyzeBody(t, `
func h(p *Proc, m *Message) Cont {
	if m.Size > 0 {
		p.WaitRecv(0, 0)
	}
	return h
}
`)
	wantRules(t, diags, "contarm")
	if !strings.Contains(diags[0].Message, "some path") {
		t.Errorf("want a may-not-arm diagnostic, got: %s", diags[0].Message)
	}
}

func TestContSafeBlockingCall(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func h(p *Proc, m *Message) Cont {
	p.Sleep(1)
	return nil
}
`), "contblock")
}

func TestContSafeCleanHandler(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func h(p *Proc, m *Message) Cont {
	if m == nil {
		return nil
	}
	p.FreeMessage(m)
	p.WaitRecv(0, 0)
	return h
}
`))
}

func TestContSafeNonHandlerNotJudged(t *testing.T) {
	// Wrong arity: producers of continuations are not handlers; make1
	// returns a continuation without arming and must not be judged.
	wantRules(t, analyzeBody(t, `
func make1(tag int) Cont {
	return h1
}

func h1(p *Proc, m *Message) Cont {
	p.FreeMessage(m)
	p.WaitRecv(0, 0)
	return h1
}
`))
}

// --- slabref ---

func TestSlabRefStalePeek(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func bad(q *eventQueue, e event) Time {
	top := q.peek()
	q.push(e)
	return top.t
}
`), "slabref")
}

func TestSlabRefAppendResultStaysValid(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func good(q *eventQueue, e event) {
	a := append(q.a, e)
	a[0] = e
	q.a = a
}
`))
}

// --- detpure ---

func TestDetPureWallclock(t *testing.T) {
	wantRules(t, analyzeBody(t, `
import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`), "wallclock")
}

func TestDetPureGlobalRand(t *testing.T) {
	wantRules(t, analyzeBody(t, `
import "math/rand"

func Jitter() float64 { return rand.Float64() }
`), "globalrand")
}

func TestDetPureSeededStreamClean(t *testing.T) {
	wantRules(t, analyzeBody(t, `
import "math/rand"

func Scaled(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}
`))
}

func TestDetPureUnreachableNotReported(t *testing.T) {
	wantRules(t, analyzeBody(t, `
import "time"

func deadClock() int64 { return time.Now().UnixNano() }
`))
}

func TestDetPureOutOfScopePackage(t *testing.T) {
	// detpure keys on the import path: identical source outside the
	// deterministic core is not its business (internal/tables renders
	// experiment wall-clock durations all it wants).
	src := `package tables

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`
	diags := runSuiteAt(t, "mpisim/internal/tables", vetcore.Options{}, map[string]string{"fixture.go": src})
	wantRules(t, diags)
}

func TestDetPureObsInScope(t *testing.T) {
	// The telemetry layer is inside the detpure scope: a bare wall-clock
	// read there is reported, and each intentional one must carry a
	// reviewed allow.
	src := `package obs

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`
	diags := runSuiteAt(t, "mpisim/internal/obs", vetcore.Options{}, map[string]string{"fixture.go": src})
	wantRules(t, diags, "wallclock")

	allowed := `package obs

import "time"

func Stamp() int64 {
	return time.Now().UnixNano() //simvet:allow wallclock snapshot timestamps are observability-only
}
`
	diags = runSuiteAt(t, "mpisim/internal/obs", vetcore.Options{}, map[string]string{"fixture.go": allowed})
	wantRules(t, diags)
}

// --- //simvet:allow semantics ---

func TestAllowSuppresses(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func bad(p *Proc, m *Message) int64 {
	p.FreeMessage(m)
	return m.Size //simvet:allow msgown fixture: intentional
}
`))
}

func TestAllowLineAboveSuppresses(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func bad(p *Proc, m *Message) int64 {
	p.FreeMessage(m)
	//simvet:allow msgown fixture: intentional
	return m.Size
}
`))
}

func TestAllowWrongRuleStillReports(t *testing.T) {
	wantRules(t, analyzeBody(t, `
func bad(p *Proc, m *Message) int64 {
	p.FreeMessage(m)
	return m.Size //simvet:allow slabref wrong rule on purpose
}
`), "msgown")
}

func TestAllowMalformedAlwaysReported(t *testing.T) {
	// Missing reason: the original diagnostic stays AND the directive is
	// itself reported, strict or not.
	diags := analyzeBody(t, `
func bad(p *Proc, m *Message) int64 {
	p.FreeMessage(m)
	return m.Size //simvet:allow msgown
}
`)
	wantRules(t, diags, "allow", "msgown")
}

func TestStrictAllowReportsStale(t *testing.T) {
	src := `
func good(p *Proc) {
	m := p.RecvSrcTag(0, 1)
	p.FreeMessage(m) //simvet:allow msgown nothing to suppress here
}
`
	wantRules(t, analyzeBodyOpts(t, vetcore.Options{}, src))
	diags := analyzeBodyOpts(t, vetcore.Options{StrictAllow: true}, src)
	wantRules(t, diags, "allow")
	if !strings.Contains(diags[0].Message, "stale") {
		t.Errorf("want a stale-allow diagnostic, got: %s", diags[0].Message)
	}
}

func TestStrictAllowReportsUnknownRule(t *testing.T) {
	diags := analyzeBodyOpts(t, vetcore.Options{StrictAllow: true}, `
func good(p *Proc) {
	m := p.RecvSrcTag(0, 1)
	p.FreeMessage(m) //simvet:allow nosuchrule typo in the rule name
}
`)
	wantRules(t, diags, "allow")
	if !strings.Contains(diags[0].Message, "unknown rule") {
		t.Errorf("want an unknown-rule diagnostic, got: %s", diags[0].Message)
	}
}

func TestStrictAllowUsedDirectiveSilent(t *testing.T) {
	wantRules(t, analyzeBodyOpts(t, vetcore.Options{StrictAllow: true}, `
func bad(p *Proc, m *Message) int64 {
	p.FreeMessage(m)
	return m.Size //simvet:allow msgown fixture: intentional
}
`))
}
