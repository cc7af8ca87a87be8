// Package check is the static communication verifier: a multi-pass
// analysis framework over the program IR and the static task graph that
// rejects malformed message-passing programs with actionable diagnostics
// before they reach a simulation worker.
//
// The paper's premise is that the compiler can statically recover the
// parallel structure of an MPI program (STG synthesis, slicing, symbolic
// process sets, §3.1–3.3); this package verifies that structure instead
// of trusting it. Six passes ship by default:
//
//	sendrecv   - resolve symbolic process sets and comm-edge mappings;
//	             flag unmatched sends/recvs, out-of-range peers,
//	             truncating transfers and self-sends.
//	deadlock   - abstract execution of the per-rank communication traces
//	             under the eager-send model; reports blocking cycles with
//	             the cycle's node path, and send/send exchanges that are
//	             unsafe under synchronous (rendezvous) sends.
//	collective - every rank must reach the same collectives in the same
//	             order; collectives under data-dependent conditions are
//	             flagged as potentially divergent.
//	bounds     - symbolic/concrete checks that communication sections and
//	             unrolled array accesses stay within declared dimensions,
//	             and that replaced messages fit the compiler's dummy
//	             buffer (the static analogue of §3.1 buffer sizing).
//	slice      - audits the compiler's program slice: the relevant set
//	             must be closed under def/use dependencies, and the
//	             emitted simplified program must not use a variable the
//	             slicer dropped.
//	netconfig  - validates the machine model's interconnect topology and
//	             rank placement at the checked rank count (spec syntax,
//	             graph connectivity, positive link parameters), so a bad
//	             -topology/-netjson fails at check time.
//
// Analyses run at a concrete configuration (rank count + program inputs),
// resolving the symbolic structure exactly where possible and degrading
// to "may" information (warnings, never errors) where values are
// data-dependent. See DESIGN.md "Static verification" for the
// soundness/completeness caveats of each pass.
package check

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mpisim/internal/compiler"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/stg"
)

// Severity grades a diagnostic.
type Severity int

// Severities, in increasing order of gravity. Info findings are
// analysis-quality notes (truncated traces, inconclusive proofs);
// warnings are suspicious-but-legal constructs (send/send exchanges,
// data-dependent collectives); errors are definite defects that would
// hang or corrupt a simulation.
const (
	Info Severity = iota
	Warning
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("check: unknown severity %q", name)
	}
	return nil
}

// Diagnostic is one finding of one pass. Line numbers refer to the
// program's canonical pretty-printed listing (ir.Program.String), which
// is stable across print→parse round trips.
type Diagnostic struct {
	Pass     string   `json:"pass"`
	Severity Severity `json:"severity"`
	Program  string   `json:"program"`
	Line     int      `json:"line,omitempty"`
	Stmt     string   `json:"stmt,omitempty"`
	Message  string   `json:"message"`
	// Ranks lists witness ranks (at most a handful), when the finding is
	// tied to specific processes of the checked configuration.
	Ranks []int `json:"ranks,omitempty"`
}

// String renders the diagnostic in the one-line editor format
// "program:line: severity: [pass] message".
func (d Diagnostic) String() string {
	pos := d.Program
	if d.Line > 0 {
		pos = fmt.Sprintf("%s:%d", d.Program, d.Line)
	}
	msg := fmt.Sprintf("%s: %s: [%s] %s", pos, d.Severity, d.Pass, d.Message)
	if len(d.Ranks) > 0 {
		msg += fmt.Sprintf(" (ranks %v)", d.Ranks)
	}
	return msg
}

// Pass is one registered analysis. Traces declares that it consumes the
// per-rank communication traces; the per-rank evaluation runs only when
// an enabled pass does.
type Pass struct {
	Name   string
	Desc   string
	Traces bool
	Run    func(*Context) []Diagnostic
}

// Passes returns the registered passes in execution order.
func Passes() []Pass {
	return []Pass{
		{"sendrecv", "match sends to receives across resolved process sets", true, passSendRecv},
		{"deadlock", "detect blocking-communication cycles per rank trace", true, passDeadlock},
		{"collective", "verify all ranks reach the same collectives in the same order", true, passCollective},
		{"bounds", "check sections and indices against declared dimensions and the dummy buffer", true, passBounds},
		{"slice", "audit the program slice for dropped dependencies", false, passSlice},
		{"netconfig", "validate the machine model's topology and placement configuration", false, passNetConfig},
	}
}

// Options configure a verification run.
type Options struct {
	// Ranks is the process count to resolve the symbolic structure at
	// (default 4).
	Ranks int
	// Inputs binds the program's input parameters. Missing inputs make
	// the dependent structure data-dependent ("may") rather than failing.
	Inputs map[string]float64
	// Passes selects a subset by name; nil runs all.
	Passes []string
	// MaxOps bounds the per-rank abstract-execution budget (statement
	// visits); 0 means the default of 1<<20. Exceeding it truncates the
	// trace and downgrades trace-dependent passes to a warning.
	MaxOps int
	// Machine optionally supplies the target machine model so the
	// netconfig pass can validate its topology/placement configuration
	// at this rank count. Nil skips the pass.
	Machine *machine.Model
}

// Context is the shared state handed to every pass.
type Context struct {
	Program *ir.Program
	Opts    Options
	Ranks   int
	// Lines anchors statements to the pretty-printed listing.
	Lines map[ir.Stmt]int
	// Graph and Condensed are the full and condensed static task graphs
	// (nil when the program contains compiler-emitted constructs).
	Graph     *stg.Graph
	Condensed *stg.Graph
	// Compiled is the full compilation result (nil when compilation is
	// not applicable, e.g. for already-simplified programs).
	Compiled *compiler.Result
	// plan is the program compiled for the trace evaluator, traces the
	// arena of abstract per-rank communication traces; both are nil
	// unless an enabled pass consumes traces. evals counts the ranks the
	// evaluator ran: one per rank class (Result.Classes).
	plan   *plan
	traces *traces
	evals  int
}

// diag builds a diagnostic anchored at a statement (which may be nil).
func (c *Context) diag(pass string, sev Severity, s ir.Stmt, format string, args ...interface{}) Diagnostic {
	d := Diagnostic{
		Pass:     pass,
		Severity: sev,
		Program:  c.Program.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if s != nil {
		d.Line = c.Lines[s]
		d.Stmt = ir.StmtHead(s)
	}
	return d
}

// Truncated reports whether any rank's trace hit the analysis budget.
func (c *Context) Truncated() bool { return c.traces != nil && c.traces.truncated }

// Result collects the diagnostics of one verification run.
type Result struct {
	Program string       `json:"program"`
	Ranks   int          `json:"ranks"`
	Diags   []Diagnostic `json:"diagnostics"`
	// Classes is how many ranks were abstractly executed, each other one
	// taking the trace of one of those; 0 when no pass read traces.
	Classes int `json:"-"`
}

// Errors counts error-severity findings.
func (r *Result) Errors() int { return r.count(Error) }

// Warnings counts warning-severity findings.
func (r *Result) Warnings() int { return r.count(Warning) }

func (r *Result) count(sev Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any error-severity finding is present.
func (r *Result) HasErrors() bool { return r.Errors() > 0 }

// Text renders every diagnostic at or above min, one per line.
func (r *Result) Text(min Severity) string {
	var sb strings.Builder
	for _, d := range r.Diags {
		if d.Severity >= min {
			sb.WriteString(d.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// JSON renders the machine-readable encoding.
func (r *Result) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Run verifies the program at the given configuration. A non-nil error
// means the checker itself could not run (structurally invalid program,
// bad options); findings about a structurally valid program are returned
// as diagnostics, not errors.
func Run(p *ir.Program, opts Options) (*Result, error) {
	res, _, err := run(p, opts, classMinRanks)
	return res, err
}

// run is Run, also returning the pass context (nil for a structurally
// invalid program) for tests of the verifier's own cost, which hold
// rank classes (classFrom 0) to per-rank evaluation (classFrom perRank).
func run(p *ir.Program, opts Options, classFrom int) (*Result, *Context, error) {
	if p == nil {
		return nil, nil, fmt.Errorf("check: nil program")
	}
	passes, err := selectPasses(opts.Passes)
	if err != nil {
		return nil, nil, err
	}
	if opts.Ranks <= 0 {
		opts.Ranks = 4
	}
	if opts.MaxOps <= 0 {
		opts.MaxOps = 1 << 20
	}
	res := &Result{Program: p.Name, Ranks: opts.Ranks}
	if err := p.Validate(); err != nil {
		// Structural invalidity is itself a (fatal) diagnostic: nothing
		// else can run over a malformed tree.
		res.Diags = append(res.Diags, Diagnostic{
			Pass: "validate", Severity: Error, Program: p.Name, Message: err.Error(),
		})
		return res, nil, nil
	}
	ctx := &Context{
		Program: p,
		Opts:    opts,
		Ranks:   opts.Ranks,
		Lines:   p.StmtLines(),
	}
	// Graph + compile: only for source programs. Compiler-emitted
	// programs (Delay/Timed/ReadTaskTimes) are checked on traces alone.
	if g, err := stg.Build(p); err == nil {
		ctx.Graph = g
		if comp, err := compiler.Compile(p); err == nil {
			ctx.Compiled = comp
			ctx.Condensed = comp.Graph
		} else {
			res.Diags = append(res.Diags, Diagnostic{
				Pass: "slice", Severity: Warning, Program: p.Name,
				Message: fmt.Sprintf("compilation failed, slice audit skipped: %v", err),
			})
		}
	}
	for _, pass := range passes {
		if pass.Traces && ctx.traces == nil {
			ctx.plan = compilePlan(ctx)
			ctx.traces = buildTraces(ctx, classFrom)
			res.Diags = append(res.Diags, ctx.traces.notes...)
		}
		res.Diags = append(res.Diags, pass.Run(ctx)...)
	}
	res.Diags = dedupe(res.Diags)
	res.Classes = ctx.evals
	return res, ctx, nil
}

// selectPasses resolves a pass-name subset (nil or empty: all) to the
// registered passes in execution order, rejecting unknown names.
func selectPasses(names []string) ([]Pass, error) {
	registered := Passes()
	if len(names) == 0 {
		return registered, nil
	}
	var out []Pass
	var known []string
	for _, pass := range registered {
		known = append(known, pass.Name)
		if slices.Contains(names, pass.Name) {
			out = append(out, pass)
		}
	}
	for _, name := range names {
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("check: unknown pass %q (registered: %s)", name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// dedupe removes repeated (pass, line, message) findings and orders the
// rest by line, then pass, then message, so output is deterministic and
// stable across print→parse round trips.
func dedupe(diags []Diagnostic) []Diagnostic {
	seen := map[string]bool{}
	out := diags[:0]
	for _, d := range diags {
		key := fmt.Sprintf("%s|%d|%d|%s", d.Pass, d.Severity, d.Line, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Pass != out[j].Pass {
			return out[i].Pass < out[j].Pass
		}
		return out[i].Message < out[j].Message
	})
	return out
}
