package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// MaxExprDepth bounds how deeply ParseExpr nests: the depth of the tree it
// builds, where each operator of a chain like 1+1+...+1 is a level, and
// the parentheses, calls and unary minuses open at once on the way down.
// Deeper text is refused: every pass that walks an expression recurses,
// and a stack overflow is a fatal error no recover catches.
const MaxExprDepth = 1000

// ParseExpr reads a runtime expression in the syntax produced by
// Expr.String: numbers, scalars, array references NAME(idx, ...),
// arithmetic and comparison operators, min/max/ceildiv, the unary
// intrinsics, and sum(i, lo, hi, body). It refuses an expression nested
// deeper than MaxExprDepth.
func ParseExpr(src string) (Expr, error) {
	p := &exprParser{src: src}
	p.next()
	e, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != etEOF {
		return nil, fmt.Errorf("ir: unexpected %q at offset %d in %q", p.tok.text, p.tok.pos, clip(src))
	}
	return e, nil
}

// clip shortens text quoted in an error to its first 80 bytes.
func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

// MustParseExpr is ParseExpr but panics on error.
func MustParseExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

type eTokKind int

const (
	etEOF eTokKind = iota
	etNum
	etIdent
	etOp
	etLParen
	etRParen
	etComma
)

type eTok struct {
	kind eTokKind
	text string
	pos  int
}

type exprParser struct {
	src  string
	off  int
	tok  eTok
	open int // parentheses, calls and unary minuses being parsed
	d    int // depth of the tree the last parse method returned
}

// node records that the tree just built is d deep, refusing it past
// MaxExprDepth.
func (p *exprParser) node(e Expr, d int) (Expr, error) {
	if d > MaxExprDepth {
		return nil, p.tooDeep()
	}
	p.d = d
	return e, nil
}

// enter opens a nested construct; leave closes it.
func (p *exprParser) enter() error {
	if p.open++; p.open > MaxExprDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *exprParser) tooDeep() error {
	return fmt.Errorf("ir: expression nests deeper than %d at offset %d", MaxExprDepth, p.tok.pos)
}

func (p *exprParser) leave() { p.open-- }

func (p *exprParser) next() {
	for p.off < len(p.src) && unicode.IsSpace(rune(p.src[p.off])) {
		p.off++
	}
	start := p.off
	if p.off >= len(p.src) {
		p.tok = eTok{etEOF, "", start}
		return
	}
	c := p.src[p.off]
	switch {
	case c >= '0' && c <= '9' || c == '.':
		for p.off < len(p.src) && (isExprNumChar(p.src[p.off]) ||
			((p.src[p.off] == '+' || p.src[p.off] == '-') && p.off > start &&
				(p.src[p.off-1] == 'e' || p.src[p.off-1] == 'E'))) {
			p.off++
		}
		p.tok = eTok{etNum, p.src[start:p.off], start}
	case c == '_' || unicode.IsLetter(rune(c)):
		for p.off < len(p.src) && (p.src[p.off] == '_' ||
			unicode.IsLetter(rune(p.src[p.off])) || unicode.IsDigit(rune(p.src[p.off]))) {
			p.off++
		}
		p.tok = eTok{etIdent, p.src[start:p.off], start}
	case c == '(':
		p.off++
		p.tok = eTok{etLParen, "(", start}
	case c == ')':
		p.off++
		p.tok = eTok{etRParen, ")", start}
	case c == ',':
		p.off++
		p.tok = eTok{etComma, ",", start}
	default:
		if p.off+1 < len(p.src) {
			switch p.src[p.off : p.off+2] {
			case "//", "<=", ">=", "==", "!=":
				p.tok = eTok{etOp, p.src[p.off : p.off+2], start}
				p.off += 2
				return
			}
		}
		if strings.ContainsRune("+-*/%<>", rune(c)) {
			p.off++
			p.tok = eTok{etOp, string(c), start}
			return
		}
		p.tok = eTok{etOp, string(c), start}
		p.off++
	}
}

func isExprNumChar(c byte) bool {
	return c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E'
}

var exprCmpOps = map[string]Op{
	"<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE, "==": OpEQ, "!=": OpNE,
}

func (p *exprParser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == etOp {
		if op, ok := exprCmpOps[p.tok.text]; ok {
			ld := p.d
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return p.node(Bin{op, l, r}, max(ld, p.d)+1)
		}
	}
	return l, nil
}

func (p *exprParser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == etOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := OpAdd
		if p.tok.text == "-" {
			op = OpSub
		}
		ld := p.d
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		if l, err = p.node(Bin{op, l, r}, max(ld, p.d)+1); err != nil {
			return nil, err
		}
	}
	return l, nil
}

var exprMulOps = map[string]Op{"*": OpMul, "/": OpDiv, "//": OpIDiv, "%": OpMod}

func (p *exprParser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == etOp {
		op, ok := exprMulOps[p.tok.text]
		if !ok {
			break
		}
		ld := p.d
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if l, err = p.node(Bin{op, l, r}, max(ld, p.d)+1); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *exprParser) parseUnary() (Expr, error) {
	if p.tok.kind == etOp && p.tok.text == "-" {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold a leading minus into negative literals, as the printer
		// emits them.
		if n, ok := e.(Num); ok {
			return Num{-n.Value}, nil
		}
		return p.node(Bin{OpSub, Num{0}, e}, p.d+1)
	}
	return p.parsePrimary()
}

var exprBinFuncs = map[string]Op{"min": OpMin, "max": OpMax, "ceildiv": OpCeilDiv}

func (p *exprParser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case etNum:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, fmt.Errorf("ir: bad number %q: %v", p.tok.text, err)
		}
		p.next()
		return p.node(Num{v}, 1)
	case etIdent:
		name := p.tok.text
		p.next()
		if p.tok.kind != etLParen {
			return p.node(Scalar{name}, 1)
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		return p.parseCall(name)
	case etLParen:
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		e, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != etRParen {
			return nil, fmt.Errorf("ir: expected ')' at offset %d", p.tok.pos)
		}
		p.next()
		return e, nil
	}
	return nil, fmt.Errorf("ir: unexpected %q at offset %d", p.tok.text, p.tok.pos)
}

// parseCall handles function applications and array references; the name
// disambiguates (known operators and intrinsics are functions, anything
// else is an array).
func (p *exprParser) parseCall(name string) (Expr, error) {
	p.next() // consume '('
	if name == "sum" {
		if p.tok.kind != etIdent {
			return nil, fmt.Errorf("ir: sum index must be an identifier at offset %d", p.tok.pos)
		}
		idx := p.tok.text
		p.next()
		var args []Expr
		d := 0
		for i := 0; i < 3; i++ {
			if p.tok.kind != etComma {
				return nil, fmt.Errorf("ir: sum expects 4 arguments at offset %d", p.tok.pos)
			}
			p.next()
			a, err := p.parseCmp()
			if err != nil {
				return nil, err
			}
			args, d = append(args, a), max(d, p.d)
		}
		if p.tok.kind != etRParen {
			return nil, fmt.Errorf("ir: expected ')' at offset %d", p.tok.pos)
		}
		p.next()
		return p.node(SumE{Index: idx, Lo: args[0], Hi: args[1], Body: args[2]}, d+1)
	}
	var args []Expr
	d := 0
	for {
		a, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		args, d = append(args, a), max(d, p.d)
		if p.tok.kind == etComma {
			p.next()
			continue
		}
		break
	}
	if p.tok.kind != etRParen {
		return nil, fmt.Errorf("ir: expected ')' at offset %d", p.tok.pos)
	}
	p.next()
	if op, ok := exprBinFuncs[name]; ok {
		if len(args) != 2 {
			return nil, fmt.Errorf("ir: %s expects 2 arguments, got %d", name, len(args))
		}
		return p.node(Bin{op, args[0], args[1]}, d+1)
	}
	if _, ok := Intrinsics[name]; ok {
		if len(args) != 1 {
			return nil, fmt.Errorf("ir: %s expects 1 argument, got %d", name, len(args))
		}
		return p.node(Call{name, args[0]}, d+1)
	}
	// Array reference.
	return p.node(Idx{Array: name, Index: args}, d+1)
}
