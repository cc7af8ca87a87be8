package tracein

import (
	"bytes"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"mpisim/internal/mpi"
)

// fieldMask is a set of event-line keys.
type fieldMask uint16

const (
	fSec fieldMask = 1 << iota
	fTask
	fPeer
	fTag
	fBytes
	fPeer2
	fTag2
	fRoot
	fSizes
	fR
	fOp
)

// fieldNames lists the keys in bit order, the order diagnostics name
// them in.
var fieldNames = []struct {
	mask fieldMask
	name string
}{
	{fSec, "sec"}, {fTask, "task"}, {fPeer, "peer"}, {fTag, "tag"},
	{fBytes, "bytes"}, {fPeer2, "peer2"}, {fTag2, "tag2"},
	{fRoot, "root"}, {fSizes, "sizes"}, {fR, "r"}, {fOp, "op"},
}

// opSpec declares which fields an op must and additionally may carry.
// name is the constant every parsed Call.Op of that op shares.
type opSpec struct {
	name     string
	req, opt fieldMask
}

// ops is the v1 op table; the parser validates against it and the
// writer emits from it. The point-to-point and local-work ops that make
// up nearly every line come first: opOf scans in order.
var ops = [...]opSpec{
	{"compute", fSec, 0},
	{"delay", fSec, fTask},
	{"send", fPeer | fTag | fBytes, 0},
	{"recv", fPeer | fTag | fBytes, 0},
	{"sendrecv", fPeer | fTag | fBytes | fPeer2 | fTag2, 0},
	{"bcast", fRoot | fBytes, 0},
	{"reduce", fRoot | fBytes, 0},
	{"gather", fRoot | fBytes, 0},
	{"scatter", fRoot | fBytes, fSizes},
	{"allreduce", fBytes, 0},
	{"allgather", fBytes, 0},
	{"alltoall", fBytes, fSizes},
	{"barrier", 0, 0},
}

// opOf finds an op by name, nil when there is none.
func opOf[T string | []byte](name T) *opSpec {
	for i := range ops {
		if string(name) == ops[i].name {
			return &ops[i]
		}
	}
	return nil
}

func fieldOf(key []byte) fieldMask {
	switch string(key) {
	case "r":
		return fR
	case "op":
		return fOp
	case "sec":
		return fSec
	case "task":
		return fTask
	case "peer":
		return fPeer
	case "tag":
		return fTag
	case "bytes":
		return fBytes
	case "peer2":
		return fPeer2
	case "tag2":
		return fTag2
	case "root":
		return fRoot
	case "sizes":
		return fSizes
	}
	return 0
}

func maskNames(m fieldMask) string {
	var names []string
	for _, f := range fieldNames {
		if m&f.mask != 0 {
			names = append(names, f.name)
		}
	}
	return strings.Join(names, ", ")
}

// scanner decodes v1 event lines without reflection: one pass over the
// line's bytes, strconv on sub-slices, no per-line allocation beyond a
// sizes array. It accepts what encoding/json accepted for the same
// struct except the classes DESIGN.md lists (case-folded keys, null
// values, duplicate keys, raw invalid UTF-8, and a stray closing
// bracket after the object).
type scanner struct {
	ranks  int
	keep   bool // false: validate only, keep neither task names nor sizes
	lineNo int
	buf    []byte
	pos    int

	str   []byte            // unescape scratch
	sizes []int64           // sizes scratch
	tasks map[string]string // interned task names

	// The decoded line.
	have  fieldMask
	op    *opSpec
	badOp string
	call  mpi.Call
	rank  int
}

func (s *scanner) errf(format string, args ...interface{}) error {
	return lineErr(s.lineNo, format, args...)
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.buf) && s.buf[s.pos] <= ' ' {
		if c := s.buf[s.pos]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return
		}
		s.pos++
	}
}

// peek returns the next byte, 0 at end of line.
func (s *scanner) peek() byte {
	if s.pos < len(s.buf) {
		return s.buf[s.pos]
	}
	return 0
}

func (s *scanner) syntax(want string) error {
	if s.pos >= len(s.buf) {
		return s.errf("invalid JSON: line ends where %s was expected", want)
	}
	return s.errf("invalid JSON at column %d: expected %s, found %q", s.pos+1, want, s.buf[s.pos])
}

// event scans one event line (surrounding whitespace already trimmed)
// and validates it against the header's rank count. On success the
// decoded call is in s.call and its rank in s.rank.
func (s *scanner) event(line []byte, lineNo int) error {
	s.buf, s.pos, s.lineNo = line, 0, lineNo
	s.have, s.op, s.badOp, s.call = 0, nil, "", mpi.Call{}
	if s.peek() != '{' {
		return s.errf("expected a JSON object")
	}
	s.pos++
	s.skipSpace()
	if s.peek() == '}' {
		s.pos++
	} else {
	members:
		for {
			if err := s.member(); err != nil {
				return err
			}
			s.skipSpace()
			switch s.peek() {
			case '}':
				s.pos++
				break members
			case ',':
				s.pos++
				s.skipSpace()
			default:
				return s.syntax("',' or '}'")
			}
		}
	}
	if s.pos < len(s.buf) {
		return s.errf("trailing content after JSON object")
	}
	return s.validate()
}

// member scans one `"key": value` pair into the decoded line.
func (s *scanner) member() error {
	if s.peek() != '"' {
		return s.syntax("a field name")
	}
	key, err := s.stringLit()
	if err != nil {
		return err
	}
	f := fieldOf(key)
	if f == 0 {
		for _, fn := range fieldNames {
			if strings.EqualFold(string(key), fn.name) {
				return s.errf("unknown field %q (field names are case-sensitive: want %q)", key, fn.name)
			}
		}
		return s.errf("unknown field %q", key)
	}
	name := fieldNames[bits.TrailingZeros16(uint16(f))].name
	if s.have&f != 0 {
		return s.errf("duplicate field %q", name)
	}
	s.have |= f
	s.skipSpace()
	if s.peek() != ':' {
		return s.syntax("':'")
	}
	s.pos++
	s.skipSpace()
	if s.peek() == 'n' && bytes.HasPrefix(s.buf[s.pos:], []byte("null")) {
		return s.errf("field %q is null (null values are not accepted; omit the field)", name)
	}
	c := &s.call
	switch f {
	case fR:
		s.rank, err = s.intLit(name)
	case fPeer:
		c.Peer, err = s.intLit(name)
	case fTag:
		c.Tag, err = s.intLit(name)
	case fPeer2:
		c.Peer2, err = s.intLit(name)
	case fTag2:
		c.Tag2, err = s.intLit(name)
	case fRoot:
		c.Root, err = s.intLit(name)
	case fBytes:
		c.Bytes, err = s.int64Lit(name)
	case fSec:
		c.Sec, err = s.floatLit(name)
	case fOp:
		var v []byte
		if v, err = s.stringValue(name); err == nil {
			if s.op = opOf(v); s.op == nil {
				s.badOp = string(v)
			}
		}
	case fTask:
		var v []byte
		if v, err = s.stringValue(name); err == nil && s.keep {
			c.Task = s.intern(v)
		}
	case fSizes:
		err = s.sizesLit()
	}
	return err
}

func (s *scanner) intern(v []byte) string {
	if t, ok := s.tasks[string(v)]; ok {
		return t
	}
	if s.tasks == nil {
		s.tasks = make(map[string]string)
	}
	t := string(v)
	s.tasks[t] = t
	return t
}

// digits advances over a run of decimal digits and reports whether
// there was one.
func (s *scanner) digits() bool {
	n := s.pos
	for s.pos < len(s.buf) && s.buf[s.pos] >= '0' && s.buf[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > n
}

// number advances over one JSON number and reports whether it is an
// integer literal (no fraction, no exponent).
func (s *scanner) number() (lit []byte, integer, ok bool) {
	start := s.pos
	if s.peek() == '-' {
		s.pos++
	}
	if s.peek() == '0' {
		s.pos++
	} else if !s.digits() {
		return nil, false, false
	}
	integer = true
	if s.peek() == '.' {
		s.pos++
		integer = false
		if !s.digits() {
			return nil, false, false
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		integer = false
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if !s.digits() {
			return nil, false, false
		}
	}
	return s.buf[start:s.pos], integer, true
}

// intBits scans an integer literal of the given bit size. Literals of up
// to 18 digits — every one Write emits short of a near-overflow tag —
// convert in the same pass that delimits them; the rest (and every
// malformed one) take the number + strconv path.
func (s *scanner) intBits(name string, size int) (int64, error) {
	start := s.pos
	i := start
	if i < len(s.buf) && s.buf[i] == '-' {
		i++
	}
	first, n := i, uint64(0)
	for ; i < len(s.buf) && s.buf[i]-'0' <= 9; i++ {
		n = n*10 + uint64(s.buf[i]-'0')
	}
	if nd := i - first; nd > 0 && nd <= 18 && (nd == 1 || s.buf[first] != '0') && n>>(size-1) == 0 &&
		(i == len(s.buf) || s.buf[i] != '.' && s.buf[i]|0x20 != 'e') {
		s.pos = i
		if first > start {
			return -int64(n), nil
		}
		return int64(n), nil
	}
	lit, integer, ok := s.number()
	if !ok {
		s.pos = start
		return 0, s.errf("field %q must be an integer", name)
	}
	if !integer {
		return 0, s.errf("field %q must be an integer, got %s", name, lit)
	}
	v, err := strconv.ParseInt(string(lit), 10, size)
	if err != nil {
		return 0, s.errf("field %q: %s is out of range", name, lit)
	}
	return v, nil
}

func (s *scanner) intLit(name string) (int, error) {
	v, err := s.intBits(name, strconv.IntSize)
	return int(v), err
}

func (s *scanner) int64Lit(name string) (int64, error) {
	return s.intBits(name, 64)
}

func (s *scanner) floatLit(name string) (float64, error) {
	lit, _, ok := s.number()
	if !ok {
		return 0, s.errf("field %q must be a number", name)
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, s.errf("field %q: %s is out of range", name, lit)
	}
	return v, nil
}

func (s *scanner) stringValue(name string) ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.errf("field %q must be a string", name)
	}
	return s.stringLit()
}

// stringLit scans the string literal at s.pos and returns its decoded
// bytes, valid until the next call: a sub-slice of the line when the
// literal has no escapes, the unescape scratch otherwise.
func (s *scanner) stringLit() ([]byte, error) {
	s.pos++ // opening quote
	start := s.pos
	ascii := true
	for s.pos < len(s.buf) {
		switch c := s.buf[s.pos]; {
		case c == '"':
			lit := s.buf[start:s.pos]
			s.pos++
			if !ascii && !utf8.Valid(lit) {
				return nil, s.errf("invalid UTF-8 in string")
			}
			return lit, nil
		case c == '\\':
			s.str = append(s.str[:0], s.buf[start:s.pos]...)
			if !ascii && !utf8.Valid(s.str) {
				return nil, s.errf("invalid UTF-8 in string")
			}
			return s.escapedTail()
		case c < 0x20:
			return nil, s.errf("invalid JSON at column %d: control character in string", s.pos+1)
		case c >= utf8.RuneSelf:
			ascii = false
		}
		s.pos++
	}
	return nil, s.errf("invalid JSON: unterminated string")
}

// escapedTail finishes a string literal from its first backslash on,
// appending decoded bytes to s.str. Escapes decode as encoding/json
// decodes them (an unpaired \u surrogate becomes U+FFFD).
func (s *scanner) escapedTail() ([]byte, error) {
	for s.pos < len(s.buf) {
		c := s.buf[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.str, nil
		case c < 0x20:
			return nil, s.errf("invalid JSON at column %d: control character in string", s.pos+1)
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(s.buf[s.pos:])
			if r == utf8.RuneError && n == 1 {
				return nil, s.errf("invalid UTF-8 in string")
			}
			s.str = append(s.str, s.buf[s.pos:s.pos+n]...)
			s.pos += n
			continue
		case c != '\\':
			s.str = append(s.str, c)
			s.pos++
			continue
		}
		s.pos++
		if s.pos >= len(s.buf) {
			break
		}
		esc := s.buf[s.pos]
		s.pos++
		switch esc {
		case '"', '\\', '/':
			s.str = append(s.str, esc)
		case 'b':
			s.str = append(s.str, '\b')
		case 'f':
			s.str = append(s.str, '\f')
		case 'n':
			s.str = append(s.str, '\n')
		case 'r':
			s.str = append(s.str, '\r')
		case 't':
			s.str = append(s.str, '\t')
		case 'u':
			r := s.hex4(s.pos)
			if r < 0 {
				return nil, s.errf("invalid JSON at column %d: bad \\u escape", s.pos+1)
			}
			s.pos += 4
			if utf16.IsSurrogate(r) {
				lo := rune(-1)
				if s.peek() == '\\' && s.pos+1 < len(s.buf) && s.buf[s.pos+1] == 'u' {
					lo = s.hex4(s.pos + 2)
				}
				if r = utf16.DecodeRune(r, lo); r != utf8.RuneError {
					s.pos += 6
				}
			}
			s.str = utf8.AppendRune(s.str, r)
		default:
			return nil, s.errf("invalid JSON at column %d: bad escape \\%c", s.pos, esc)
		}
	}
	return nil, s.errf("invalid JSON: unterminated string")
}

// hex4 decodes the four hex digits at buf[i:], -1 when they are not.
func (s *scanner) hex4(i int) rune {
	if i+4 > len(s.buf) {
		return -1
	}
	var r rune
	for _, c := range s.buf[i : i+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// sizesLit scans the sizes array into the scratch slice.
func (s *scanner) sizesLit() error {
	if s.peek() != '[' {
		return s.errf("field \"sizes\" must be an array of integers")
	}
	s.pos++
	s.sizes = s.sizes[:0]
	s.skipSpace()
	if s.peek() == ']' {
		s.pos++
		return nil
	}
	for {
		if s.peek() == 'n' && bytes.HasPrefix(s.buf[s.pos:], []byte("null")) {
			return s.errf("sizes[%d] is null (null values are not accepted)", len(s.sizes))
		}
		v, err := s.int64Lit("sizes")
		if err != nil {
			return err
		}
		s.sizes = append(s.sizes, v)
		s.skipSpace()
		switch s.peek() {
		case ']':
			s.pos++
			return nil
		case ',':
			s.pos++
			s.skipSpace()
		default:
			return s.syntax("',' or ']'")
		}
	}
}

// validate applies the per-op field sets and the range checks to the
// scanned line and completes s.call.
func (s *scanner) validate() error {
	if s.have&fR == 0 {
		return s.errf(`event missing field "r"`)
	}
	if s.have&fOp == 0 {
		return s.errf(`event missing field "op"`)
	}
	ranks, rank := s.ranks, s.rank
	if rank < 0 || rank >= ranks {
		return s.errf("rank %d out of range [0, %d)", rank, ranks)
	}
	spec := s.op
	if spec == nil {
		return s.errf("unknown op %q", s.badOp)
	}
	have := s.have &^ (fR | fOp)
	if missing := spec.req &^ have; missing != 0 {
		return s.errf("op %q missing field(s): %s", spec.name, maskNames(missing))
	}
	if extra := have &^ (spec.req | spec.opt); extra != 0 {
		return s.errf("op %q does not take field(s): %s", spec.name, maskNames(extra))
	}
	c := &s.call
	c.Op = spec.name
	if have&fSec != 0 && (math.IsNaN(c.Sec) || math.IsInf(c.Sec, 0) || c.Sec < 0) {
		return s.errf("sec must be finite and >= 0, got %v", c.Sec)
	}
	if have&fBytes != 0 && c.Bytes < 0 {
		return s.errf("bytes must be >= 0, got %d", c.Bytes)
	}
	if have&fPeer != 0 {
		lo := 0
		if spec.name == "recv" {
			lo = mpi.AnySource // the receive wildcard
		}
		if c.Peer < lo || c.Peer >= ranks {
			return s.errf("peer %d out of range [%d, %d)", c.Peer, lo, ranks)
		}
	}
	if have&fPeer2 != 0 && (c.Peer2 < mpi.AnySource || c.Peer2 >= ranks) {
		return s.errf("peer2 %d out of range [%d, %d)", c.Peer2, mpi.AnySource, ranks)
	}
	if have&fRoot != 0 && (c.Root < 0 || c.Root >= ranks) {
		return s.errf("root %d out of range [0, %d)", c.Root, ranks)
	}
	if have&fSizes != 0 {
		if len(s.sizes) != ranks {
			return s.errf("sizes has %d entries, want one per rank (%d)", len(s.sizes), ranks)
		}
		for i, v := range s.sizes {
			if v < 0 {
				return s.errf("sizes[%d] must be >= 0, got %d", i, v)
			}
		}
		if spec.name == "scatter" && rank != c.Root {
			return s.errf("scatter sizes are only valid on the root's event (rank %d, root %d)", rank, c.Root)
		}
		if s.keep {
			c.Sizes = append([]int64(nil), s.sizes...)
		}
	}
	return nil
}
