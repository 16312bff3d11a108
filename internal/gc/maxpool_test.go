package gc

import (
	"testing"
	"testing/quick"
)

func TestSignedLessExhaustive5(t *testing.T) {
	const bits = 5
	b := NewBuilder()
	a := b.GarblerInput(bits)
	c := b.EvaluatorInput(bits)
	b.Output(b.SignedLess(a, c))
	circ := b.Finish()
	toSigned := func(x uint64) int64 {
		if x >= 16 {
			return int64(x) - 32
		}
		return int64(x)
	}
	for x := uint64(0); x < 32; x++ {
		for y := uint64(0); y < 32; y++ {
			got := garbleEval(t, circ, UintToBits(x, bits), UintToBits(y, bits), 61)
			want := byte(0)
			if toSigned(x) < toSigned(y) {
				want = 1
			}
			if got[0] != want {
				t.Fatalf("less(%d,%d) = %d, want %d", toSigned(x), toSigned(y), got[0], want)
			}
		}
	}
}

func TestMaxProperty(t *testing.T) {
	const bits = 16
	b := NewBuilder()
	a := b.GarblerInput(bits)
	c := b.EvaluatorInput(bits)
	b.Output(b.Max(a, c)...)
	circ := b.Finish()
	mask := uint64(1<<bits - 1)
	f := func(x, y int16) bool {
		got := BitsToUint(garbleEval(t, circ, UintToBits(uint64(x)&mask, bits), UintToBits(uint64(y)&mask, bits), 62))
		want := int64(x)
		if int64(y) > want {
			want = int64(y)
		}
		return int64(int16(got)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBatchMaxPoolCircuit(t *testing.T) {
	const bits = 8
	const win, n = 4, 3
	for _, withReLU := range []bool{false, true} {
		circ := BatchMaxPoolCircuit(bits, win, n, withReLU)
		mask := uint64(255)
		ys := [][]int64{
			{5, -3, 9, 2},
			{-8, -1, -7, -2},
			{0, 0, 0, 0},
		}
		y1 := make([]uint64, n*win)
		y0 := make([]uint64, n*win)
		z1 := []uint64{13, 200, 77}
		seed := uint64(63)
		for k := 0; k < n; k++ {
			for e := 0; e < win; e++ {
				i := k*win + e
				y1[i] = uint64(i*31+7) & mask
				y0[i] = (uint64(ys[k][e]) - y1[i]) & mask
			}
		}
		gBits := append(VecToBits(y1, bits), VecToBits(z1, bits)...)
		out := garbleEval(t, circ, gBits, VecToBits(y0, bits), seed)
		z0 := BitsToVec(out, bits, n)
		for k := 0; k < n; k++ {
			want := ys[k][0]
			for _, v := range ys[k][1:] {
				if v > want {
					want = v
				}
			}
			if withReLU && want < 0 {
				want = 0
			}
			got := int64(int8((z0[k] + z1[k]) & mask))
			if got != want {
				t.Fatalf("relu=%v window %d: max = %d, want %d", withReLU, k, got, want)
			}
		}
	}
}

func TestArgmaxCircuit(t *testing.T) {
	const bits = 12
	cases := [][]int64{
		{5, -3, 9, 2},
		{-8, -1, -7, -2},
		{7, 7, 7, 7}, // ties: first index wins (strict less for update)
		{1},
		{-5, 100},
	}
	for ci, ys := range cases {
		n := len(ys)
		idxBits := uint(3)
		circ := BatchArgmaxCircuit(bits, n, idxBits, 1)
		mask := uint64(1<<bits - 1)
		y1 := make([]uint64, n)
		y0 := make([]uint64, n)
		for i, y := range ys {
			y1[i] = uint64(i*97+13) & mask
			y0[i] = (uint64(y) - y1[i]) & mask
		}
		maskBitsVal := uint64(5) // arbitrary garbler mask
		gBits := append(VecToBits(y1, bits), UintToBits(maskBitsVal, idxBits)...)
		out := garbleEval(t, circ, gBits, VecToBits(y0, bits), uint64(64+ci))
		got := BitsToUint(out) ^ maskBitsVal
		want := 0
		for i, y := range ys {
			if y > ys[want] {
				want = i
			}
			_ = i
		}
		if got != uint64(want) {
			t.Fatalf("case %d: argmax = %d, want %d", ci, got, want)
		}
	}
}

func TestPopCountCircuit(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 15, 16, 33} {
		b := NewBuilder()
		xs := b.GarblerInput(n)
		_ = b.EvaluatorInput(0)
		out := b.PopCount(xs)
		b.Output(out...)
		circ := b.Finish()
		need := 1
		for (1 << need) < n+1 {
			need++
		}
		if len(out) != need {
			t.Fatalf("n=%d: popcount width %d, want %d", n, len(out), need)
		}
		// Test a few patterns including all-zero and all-one.
		patterns := [][]byte{make([]byte, n), nil, nil}
		patterns[1] = make([]byte, n)
		for i := range patterns[1] {
			patterns[1][i] = 1
		}
		patterns[2] = make([]byte, n)
		for i := range patterns[2] {
			patterns[2][i] = byte((i * 7) % 2)
		}
		for pi, p := range patterns {
			want := uint64(0)
			for _, v := range p {
				want += uint64(v)
			}
			got := BitsToUint(garbleEval(t, circ, p, nil, uint64(70+pi)))
			if got != want {
				t.Fatalf("n=%d pattern %d: popcount %d, want %d", n, pi, got, want)
			}
		}
	}
}

func TestGreaterConst(t *testing.T) {
	const bits = 6
	b := NewBuilder()
	x := b.GarblerInput(bits)
	_ = b.EvaluatorInput(0)
	b.Output(b.GreaterConst(x, 25))
	circ := b.Finish()
	for v := uint64(0); v < 64; v++ {
		got := garbleEval(t, circ, UintToBits(v, bits), nil, 80)
		want := byte(0)
		if v > 25 {
			want = 1
		}
		if got[0] != want {
			t.Fatalf("greater(%d, 25) = %d, want %d", v, got[0], want)
		}
	}
}

func TestArgmaxCircuitPanicsOnNarrowIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for 2^idxBits < n")
		}
	}()
	BatchArgmaxCircuit(8, 5, 2, 1)
}
