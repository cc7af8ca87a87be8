package symexpr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func applyOK(t *testing.T, op Op, l, r float64) float64 {
	t.Helper()
	v, err := ApplyOp(op, l, r)
	if err != nil {
		t.Fatalf("ApplyOp(%s, %v, %v) failed: %v", op, l, r, err)
	}
	return v
}

func TestBinaryArith(t *testing.T) {
	cases := []struct {
		op   Op
		l, r float64
		want float64
	}{
		{OpAdd, 7, 2, 9},
		{OpSub, 7, 2, 5},
		{OpMul, 7, 2, 14},
		{OpDiv, 7, 2, 3.5},
		{OpIDiv, 7, 2, 3},
		{OpCeilDiv, 7, 2, 4},
		{OpMod, 7, 2, 1},
		{OpMin, 7, 2, 2},
		{OpMax, 7, 2, 7},
		{OpLT, 7, 2, 0},
		{OpGT, 7, 2, 1},
		{OpLE, 2, 2, 1},
		{OpGE, 2, 7, 0},
		{OpEQ, 7, 7, 1},
		{OpNE, 7, 2, 1},
	}
	for _, c := range cases {
		if got := applyOK(t, c.op, c.l, c.r); got != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	want := map[Op]string{
		OpDiv:     "symexpr: division by zero",
		OpIDiv:    "symexpr: integer division by zero",
		OpCeilDiv: "symexpr: ceildiv by zero",
		OpMod:     "symexpr: mod by zero",
	}
	for op, text := range want {
		if _, err := ApplyOp(op, 1, 0); err == nil || err.Error() != text {
			t.Errorf("op %v: error %v, want %q", op, err, text)
		}
	}
}

func TestModNonNegative(t *testing.T) {
	// Euclidean remainder: (-3) mod 5 == 2.
	if got := applyOK(t, OpMod, -3, 5); got != 2 {
		t.Fatalf("(-3) mod 5 = %v, want 2", got)
	}
}

// Property (testing/quick): ceildiv(a,b) == ceil(a/b) for positive ints.
func TestCeilDivQuick(t *testing.T) {
	f := func(a uint16, b uint16) bool {
		bb := int64(b%1000) + 1
		aa := int64(a)
		got, err := ApplyOp(OpCeilDiv, float64(aa), float64(bb))
		if err != nil {
			return false
		}
		want := (aa + bb - 1) / bb
		return int64(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): Mod result is always in [0, |m|).
func TestModRangeQuick(t *testing.T) {
	f := func(a int16, m uint8) bool {
		mm := int64(m) + 1
		got, err := ApplyOp(OpMod, float64(a), float64(mm))
		if err != nil {
			return false
		}
		return got >= 0 && got < float64(mm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyOpExported(t *testing.T) {
	v, err := ApplyOp(OpAdd, 2, 3)
	if err != nil || v != 5 {
		t.Fatalf("ApplyOp = %v, %v", v, err)
	}
	if _, err := ApplyOp(Op(99), 1, 1); err == nil {
		t.Fatal("expected unknown operator error")
	}
}

// TestModIntegerPathExact holds mod's integer path to the float path it
// shortcuts, math.Mod plus the non-negative fixup, bit for bit: random
// integers within ±2^53 of every magnitude, the ±(2^52-1), ±2^52,
// ±(2^53-1) and ±2^53 boundaries, ±0, NaN, ±Inf and non-integral
// operands. Returning the bare remainder for a zero one, dropping the
// dividend's sign, fails it: mod(-0, 1) and mod(-4, 2) are -0.
func TestModIntegerPathExact(t *testing.T) {
	want := func(l, r float64) float64 {
		m := math.Mod(l, r)
		if m < 0 {
			m += math.Abs(r)
		}
		return m
	}
	const lim = 1 << 53
	special := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 3, -4, 7, -7, 512, -512,
		lim/2 - 1, -(lim/2 - 1), lim / 2, -lim / 2, lim - 1, -(lim - 1), lim, -lim, lim + 2, -(lim + 2), 1 << 62, -(1 << 63),
		0.5, -0.5, 2.5, -7.25, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	rng := rand.New(rand.NewSource(1))
	operand := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return float64(rng.Int63n(2*lim+1) - lim)
		case 2:
			return float64(rng.Int63n(1<<uint(rng.Intn(54))+1)) * float64(1-2*rng.Intn(2))
		}
		return float64(rng.Intn(2049) - 1024)
	}
	check := func(l, r float64) {
		got, err := ApplyOp(OpMod, l, r)
		if r == 0 {
			if err == nil {
				t.Fatalf("mod(%v, %v): no error", l, r)
			}
			return
		}
		if w := want(l, r); err != nil || math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("mod(%v, %v) = %v (%#x), %v; want %v (%#x)", l, r, got, math.Float64bits(got), err, w, math.Float64bits(w))
		}
	}
	for _, l := range special {
		for _, r := range special {
			check(l, r)
		}
	}
	n := 2000000
	if testing.Short() {
		n = 200000
	}
	for i := 0; i < n; i++ {
		check(operand(), operand())
	}
}
