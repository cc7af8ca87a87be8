package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a program in the textual form produced by Program.String —
// the Fortran-flavoured pseudocode this package prints — so programs can
// be stored in files, edited, and fed back to the compiler and
// simulator. Parse(p.String()) reproduces p for every valid program
// (round-trip property, enforced by tests).
//
// Grammar (line oriented; indentation is ignored):
//
//	program NAME
//	! input NAME
//	double precision NAME(expr, ...)
//	read(*, NAME)
//	lhs = expr
//	do v = expr, expr [! label] ... enddo
//	if (expr) then ... [else ...] endif
//	SEND NAME(lo:hi, ...) to expr tag N
//	RECV NAME(lo:hi, ...) from expr tag N
//	ALLREDUCE(op) v1, v2, ...
//	BCAST from expr: v1, v2, ...
//	BARRIER
//	call delay(expr) ! task NAME
//	call read_and_broadcast(v1, v2, ...)
//	call start_timer("id") ... call stop_timer("id", units=expr)
//	end
//
// Parse refuses, at the offending line, blocks nested deeper than
// MaxBlockDepth and expressions nested deeper than MaxExprDepth.
func Parse(src string) (*Program, error) {
	pp := &progParser{}
	for _, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		pp.lines = append(pp.lines, line)
	}
	return pp.parse()
}

// MustParse is Parse but panics on error; for tests and fixtures.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// MaxBlockDepth bounds how deeply Parse nests do, if and timed blocks,
// for the reason MaxExprDepth bounds expressions.
const MaxBlockDepth = 1000

type progParser struct {
	lines []string
	pos   int
	depth int // blocks open
}

func (pp *progParser) errf(format string, args ...interface{}) error {
	where := "eof"
	if pp.pos < len(pp.lines) {
		where = fmt.Sprintf("line %d: %q", pp.pos+1, clip(pp.lines[pp.pos]))
	}
	return fmt.Errorf("ir: parse %s: %s", where, fmt.Sprintf(format, args...))
}

func (pp *progParser) peek() string {
	if pp.pos < len(pp.lines) {
		return pp.lines[pp.pos]
	}
	return ""
}

func (pp *progParser) next() string {
	l := pp.peek()
	pp.pos++
	return l
}

func (pp *progParser) parse() (*Program, error) {
	head := pp.next()
	if !strings.HasPrefix(head, "program ") {
		pp.pos--
		return nil, pp.errf("expected 'program NAME'")
	}
	p := &Program{Name: strings.TrimSpace(strings.TrimPrefix(head, "program "))}
	// Header: params and array declarations.
	for {
		line := pp.peek()
		switch {
		case strings.HasPrefix(line, "! input "):
			pp.next()
			p.Params = append(p.Params, strings.TrimSpace(strings.TrimPrefix(line, "! input ")))
		case strings.HasPrefix(line, "double precision "):
			pp.next()
			d, err := parseArrayDecl(strings.TrimPrefix(line, "double precision "))
			if err != nil {
				pp.pos--
				return nil, pp.errf("%v", err)
			}
			p.Arrays = append(p.Arrays, d)
		default:
			body, err := pp.block(func(l string) bool { return l == "end" })
			if err != nil {
				return nil, err
			}
			if pp.next() != "end" {
				pp.pos--
				return nil, pp.errf("expected 'end'")
			}
			p.Body = body
			return p, nil
		}
	}
}

// block parses statements until stop matches the current line (which is
// left unconsumed).
func (pp *progParser) block(stop func(string) bool) ([]Stmt, error) {
	// The program body is the outermost block.
	if pp.depth++; pp.depth > MaxBlockDepth+1 {
		pp.pos--
		return nil, pp.errf("blocks nest deeper than %d", MaxBlockDepth)
	}
	defer func() { pp.depth-- }()
	var out []Stmt
	for {
		line := pp.peek()
		if line == "" && pp.pos >= len(pp.lines) {
			return nil, pp.errf("unexpected end of input")
		}
		if stop(line) {
			return out, nil
		}
		s, err := pp.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (pp *progParser) stmt() (Stmt, error) {
	line := pp.next()
	switch {
	case strings.HasPrefix(line, "read(*, ") && strings.HasSuffix(line, ")"):
		v := strings.TrimSuffix(strings.TrimPrefix(line, "read(*, "), ")")
		return &ReadInput{Var: strings.TrimSpace(v)}, nil

	case strings.HasPrefix(line, "do "):
		rest := strings.TrimPrefix(line, "do ")
		label := ""
		if i := strings.Index(rest, " ! "); i >= 0 {
			label = strings.TrimSpace(rest[i+3:])
			rest = rest[:i]
		}
		eq := strings.Index(rest, " = ")
		if eq < 0 {
			pp.pos--
			return nil, pp.errf("malformed do header")
		}
		v := strings.TrimSpace(rest[:eq])
		bounds, err := splitTop(rest[eq+3:])
		if err != nil || len(bounds) != 2 {
			pp.pos--
			return nil, pp.errf("do header needs 'lo, hi' bounds")
		}
		lo, err := ParseExpr(bounds[0])
		if err != nil {
			pp.pos--
			return nil, pp.errf("%v", err)
		}
		hi, err := ParseExpr(bounds[1])
		if err != nil {
			pp.pos--
			return nil, pp.errf("%v", err)
		}
		body, err := pp.block(func(l string) bool { return l == "enddo" })
		if err != nil {
			return nil, err
		}
		pp.next() // enddo
		return &For{Var: v, Lo: lo, Hi: hi, Body: body, Label: label}, nil

	case strings.HasPrefix(line, "if (") && strings.HasSuffix(line, ") then"):
		condSrc := strings.TrimSuffix(strings.TrimPrefix(line, "if ("), ") then")
		cond, err := ParseExpr(condSrc)
		if err != nil {
			pp.pos--
			return nil, pp.errf("%v", err)
		}
		then, err := pp.block(func(l string) bool { return l == "else" || l == "endif" })
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if pp.peek() == "else" {
			pp.next()
			els, err = pp.block(func(l string) bool { return l == "endif" })
			if err != nil {
				return nil, err
			}
		}
		if pp.next() != "endif" {
			pp.pos--
			return nil, pp.errf("expected 'endif'")
		}
		return &If{Cond: cond, Then: then, Else: els}, nil

	case strings.HasPrefix(line, "SEND "), strings.HasPrefix(line, "RECV "):
		return pp.commStmt(line)

	case strings.HasPrefix(line, "ALLREDUCE("):
		rest := strings.TrimPrefix(line, "ALLREDUCE(")
		close := strings.Index(rest, ")")
		if close < 0 {
			pp.pos--
			return nil, pp.errf("malformed ALLREDUCE")
		}
		op := rest[:close]
		vars := splitNames(rest[close+1:])
		return &Allreduce{Op: op, Vars: vars}, nil

	case strings.HasPrefix(line, "BCAST from "):
		rest := strings.TrimPrefix(line, "BCAST from ")
		colon := strings.Index(rest, ":")
		if colon < 0 {
			pp.pos--
			return nil, pp.errf("malformed BCAST")
		}
		root, err := ParseExpr(rest[:colon])
		if err != nil {
			pp.pos--
			return nil, pp.errf("%v", err)
		}
		return &Bcast{Root: root, Vars: splitNames(rest[colon+1:])}, nil

	case line == "BARRIER":
		return &Barrier{}, nil

	case strings.HasPrefix(line, "call delay("):
		rest := strings.TrimPrefix(line, "call delay(")
		task := ""
		if i := strings.Index(rest, ") ! task "); i >= 0 {
			task = strings.TrimSpace(rest[i+len(") ! task "):])
			rest = rest[:i]
		} else if strings.HasSuffix(rest, ")") {
			rest = strings.TrimSuffix(rest, ")")
		} else {
			pp.pos--
			return nil, pp.errf("malformed delay call")
		}
		sec, err := ParseExpr(rest)
		if err != nil {
			pp.pos--
			return nil, pp.errf("%v", err)
		}
		return &Delay{Seconds: sec, Task: task}, nil

	case strings.HasPrefix(line, "call read_and_broadcast(") && strings.HasSuffix(line, ")"):
		inner := strings.TrimSuffix(strings.TrimPrefix(line, "call read_and_broadcast("), ")")
		return &ReadTaskTimes{Names: splitNames(inner)}, nil

	case strings.HasPrefix(line, "call start_timer("):
		id, err := parseQuoted(strings.TrimSuffix(strings.TrimPrefix(line, "call start_timer("), ")"))
		if err != nil {
			pp.pos--
			return nil, pp.errf("%v", err)
		}
		stopPrefix := "call stop_timer("
		body, err := pp.block(func(l string) bool { return strings.HasPrefix(l, stopPrefix) })
		if err != nil {
			return nil, err
		}
		stopLine := pp.next()
		inner := strings.TrimSuffix(strings.TrimPrefix(stopLine, stopPrefix), ")")
		parts, err := splitTop(inner)
		if err != nil || len(parts) != 2 || !strings.HasPrefix(parts[1], "units=") {
			pp.pos--
			return nil, pp.errf("malformed stop_timer")
		}
		stopID, err := parseQuoted(parts[0])
		if err != nil || stopID != id {
			pp.pos--
			return nil, pp.errf("stop_timer id mismatch (%q vs %q)", stopID, id)
		}
		units, err := ParseExpr(strings.TrimPrefix(parts[1], "units="))
		if err != nil {
			pp.pos--
			return nil, pp.errf("%v", err)
		}
		return &Timed{ID: id, Units: units, Body: body}, nil

	default:
		// Assignment: lhs = rhs.
		eq := topLevelAssign(line)
		if eq < 0 {
			pp.pos--
			return nil, pp.errf("unrecognized statement")
		}
		lhsSrc := strings.TrimSpace(line[:eq])
		rhs, err := ParseExpr(line[eq+1:])
		if err != nil {
			pp.pos--
			return nil, pp.errf("%v", err)
		}
		lhs, err := parseRef(lhsSrc)
		if err != nil {
			pp.pos--
			return nil, pp.errf("%v", err)
		}
		return &Assign{LHS: lhs, RHS: rhs}, nil
	}
}

// commStmt parses SEND/RECV lines.
func (pp *progParser) commStmt(line string) (Stmt, error) {
	isSend := strings.HasPrefix(line, "SEND ")
	rest := line[5:]
	kw := " from "
	if isSend {
		kw = " to "
	}
	ki := lastTopLevelIndex(rest, kw)
	if ki < 0 {
		pp.pos--
		return nil, pp.errf("malformed communication statement")
	}
	secSrc := rest[:ki]
	tail := rest[ki+len(kw):]
	ti := strings.LastIndex(tail, " tag ")
	if ti < 0 {
		pp.pos--
		return nil, pp.errf("missing tag")
	}
	peer, err := ParseExpr(tail[:ti])
	if err != nil {
		pp.pos--
		return nil, pp.errf("%v", err)
	}
	tag, err := strconv.Atoi(strings.TrimSpace(tail[ti+5:]))
	if err != nil {
		pp.pos--
		return nil, pp.errf("bad tag: %v", err)
	}
	array, sec, err := parseSection(secSrc)
	if err != nil {
		pp.pos--
		return nil, pp.errf("%v", err)
	}
	if isSend {
		return &Send{Dest: peer, Tag: tag, Array: array, Section: sec}, nil
	}
	return &Recv{Src: peer, Tag: tag, Array: array, Section: sec}, nil
}

// --- helpers --------------------------------------------------------------

// parseArrayDecl parses `NAME(expr, ...)`.
func parseArrayDecl(s string) (*ArrayDecl, error) {
	name, args, err := nameAndArgs(s)
	if err != nil {
		return nil, err
	}
	d := &ArrayDecl{Name: name, Elem: 8}
	for _, a := range args {
		e, err := ParseExpr(a)
		if err != nil {
			return nil, err
		}
		d.Dims = append(d.Dims, e)
	}
	return d, nil
}

// parseRef parses an assignment target.
func parseRef(s string) (Ref, error) {
	if !strings.Contains(s, "(") {
		if !isIdent(s) {
			return Ref{}, fmt.Errorf("bad assignment target %q", s)
		}
		return Ref{Name: s}, nil
	}
	name, args, err := nameAndArgs(s)
	if err != nil {
		return Ref{}, err
	}
	ref := Ref{Name: name}
	for _, a := range args {
		e, err := ParseExpr(a)
		if err != nil {
			return Ref{}, err
		}
		ref.Index = append(ref.Index, e)
	}
	return ref, nil
}

// parseSection parses `NAME(lo:hi, lo:hi, ...)`.
func parseSection(s string) (string, []Range, error) {
	name, args, err := nameAndArgs(s)
	if err != nil {
		return "", nil, err
	}
	var sec []Range
	for _, a := range args {
		colon := topLevelColon(a)
		if colon < 0 {
			return "", nil, fmt.Errorf("section range %q missing ':'", a)
		}
		lo, err := ParseExpr(a[:colon])
		if err != nil {
			return "", nil, err
		}
		hi, err := ParseExpr(a[colon+1:])
		if err != nil {
			return "", nil, err
		}
		sec = append(sec, Range{Lo: lo, Hi: hi})
	}
	return name, sec, nil
}

// nameAndArgs splits `NAME(a, b, c)` into the name and top-level args.
func nameAndArgs(s string) (string, []string, error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "(")
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("expected NAME(...), got %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if !isIdent(name) {
		return "", nil, fmt.Errorf("bad name %q", name)
	}
	args, err := splitTop(s[open+1 : len(s)-1])
	if err != nil {
		return "", nil, err
	}
	return name, args, nil
}

// splitTop splits a comma-separated list at depth zero.
func splitTop(s string) ([]string, error) {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced parentheses in %q", s)
			}
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced parentheses in %q", s)
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out, nil
}

// splitNames splits a comma-separated identifier list.
func splitNames(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// topLevelColon finds a ':' at parenthesis depth zero.
func topLevelColon(s string) int {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ':':
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// lastTopLevelIndex finds the last occurrence of sub at depth zero.
func lastTopLevelIndex(s, sub string) int {
	depth := 0
	best := -1
	for i := 0; i+len(sub) <= len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		}
		if depth == 0 && strings.HasPrefix(s[i:], sub) {
			best = i
		}
	}
	return best
}

// topLevelAssign finds the '=' of an assignment (depth zero, not part of
// a comparison operator).
func topLevelAssign(s string) int {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case '=':
			if depth != 0 {
				continue
			}
			if i > 0 && strings.ContainsRune("<>!=", rune(s[i-1])) {
				continue
			}
			if i+1 < len(s) && s[i+1] == '=' {
				continue
			}
			return i
		}
	}
	return -1
}

func parseQuoted(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	return s[1 : len(s)-1], nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '_' || unicode.IsLetter(r) || (i > 0 && unicode.IsDigit(r)) {
			continue
		}
		return false
	}
	return true
}
