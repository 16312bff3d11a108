package gc

import (
	"reflect"
	"testing"

	"abnn2/internal/prg"
)

// garbleEval runs Garble+Evaluate locally (no network) with the given
// input bits and returns the output bits.
func garbleEval(t *testing.T, c *Circuit, gBits, eBits []byte, seed uint64) []byte {
	t.Helper()
	g, err := Garble(c, gBits, prg.New(prg.SeedFromInt(seed)))
	if err != nil {
		t.Fatalf("garble: %v", err)
	}
	evalLabels := make([]Label, c.NumEvaluator)
	for i := range evalLabels {
		evalLabels[i] = g.EvalPairs[i][eBits[i]&1]
	}
	out, err := Evaluate(c, g.Tables, g.GarblerLabels, evalLabels, g.Decode)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	return out
}

func TestGateTruthTables(t *testing.T) {
	build := func(kind GateKind) *Circuit {
		b := NewBuilder()
		a := b.GarblerInput(1)
		c := b.EvaluatorInput(1)
		var out int
		switch kind {
		case GateXOR:
			out = b.XOR(a[0], c[0])
		case GateAND:
			out = b.AND(a[0], c[0])
		}
		b.Output(out)
		return b.Finish()
	}
	truth := map[GateKind][4]byte{
		GateXOR: {0, 1, 1, 0},
		GateAND: {0, 0, 0, 1},
	}
	for kind, tt := range truth {
		c := build(kind)
		for x := 0; x < 2; x++ {
			for y := 0; y < 2; y++ {
				got := garbleEval(t, c, []byte{byte(x)}, []byte{byte(y)}, uint64(17+x*2+y))
				if got[0] != tt[x*2+y] {
					t.Errorf("kind=%d x=%d y=%d: got %d want %d", kind, x, y, got[0], tt[x*2+y])
				}
			}
		}
	}
}

func TestNotAndOr(t *testing.T) {
	b := NewBuilder()
	a := b.GarblerInput(1)
	c := b.EvaluatorInput(1)
	b.Output(b.NOT(a[0]), b.OR(a[0], c[0]))
	circ := b.Finish()
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			got := garbleEval(t, circ, []byte{byte(x)}, []byte{byte(y)}, uint64(31+x*2+y))
			if got[0] != byte(1-x) {
				t.Errorf("NOT %d = %d", x, got[0])
			}
			wantOr := byte(0)
			if x == 1 || y == 1 {
				wantOr = 1
			}
			if got[1] != wantOr {
				t.Errorf("OR %d %d = %d", x, y, got[1])
			}
		}
	}
}

func TestAdderModExhaustive4(t *testing.T) {
	const bits = 4
	b := NewBuilder()
	a := b.GarblerInput(bits)
	c := b.EvaluatorInput(bits)
	b.Output(b.AdderMod(a, c)...)
	circ := b.Finish()
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			got := BitsToUint(garbleEval(t, circ, UintToBits(x, bits), UintToBits(y, bits), 51))
			if got != (x+y)%16 {
				t.Fatalf("%d+%d = %d, want %d", x, y, got, (x+y)%16)
			}
		}
	}
}

func TestSubModExhaustive4(t *testing.T) {
	const bits = 4
	b := NewBuilder()
	a := b.GarblerInput(bits)
	c := b.EvaluatorInput(bits)
	b.Output(b.SubMod(a, c)...)
	circ := b.Finish()
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			got := BitsToUint(garbleEval(t, circ, UintToBits(x, bits), UintToBits(y, bits), 52))
			if got != (x-y)&15 {
				t.Fatalf("%d-%d = %d, want %d", x, y, got, (x-y)&15)
			}
		}
	}
}

func TestMuxVec(t *testing.T) {
	const bits = 8
	b := NewBuilder()
	in := b.GarblerInput(2*bits + 1)
	sel := in[2*bits]
	_ = b.EvaluatorInput(0)
	b.Output(b.MuxVec(sel, in[:bits], in[bits:2*bits])...)
	circ := b.Finish()
	a, c := uint64(0xA5), uint64(0x3C)
	for _, s := range []byte{0, 1} {
		gBits := append(append(UintToBits(a, bits), UintToBits(c, bits)...), s)
		got := BitsToUint(garbleEval(t, circ, gBits, nil, 53))
		want := c
		if s == 1 {
			want = a
		}
		if got != want {
			t.Errorf("mux sel=%d got %x want %x", s, got, want)
		}
	}
}

func TestBatchReLUCircuit(t *testing.T) {
	const bits = 8
	const n = 3
	circ := BatchReLUCircuit(bits, n)
	if circ.NumGarbler != 2*n*bits || circ.NumEvaluator != n*bits {
		t.Fatalf("input wires %d/%d", circ.NumGarbler, circ.NumEvaluator)
	}
	// y values: 100 (positive), -9 (negative), 0.
	ys := []int64{100, -9, 0}
	mask := uint64(255)
	y1 := []uint64{7, 250, 13}
	z1 := []uint64{99, 1, 200}
	y0 := make([]uint64, n)
	for k, y := range ys {
		y0[k] = (uint64(y) - y1[k]) & mask
	}
	gBits := append(VecToBits(y1, bits), VecToBits(z1, bits)...)
	out := garbleEval(t, circ, gBits, VecToBits(y0, bits), 54)
	z0 := BitsToVec(out, bits, n)
	for k, y := range ys {
		relu := uint64(0)
		if y > 0 {
			relu = uint64(y)
		}
		if got := (z0[k] + z1[k]) & mask; got != relu {
			t.Errorf("neuron %d: reconstructed %d, want %d", k, got, relu)
		}
	}
}

func TestBatchSignCircuit(t *testing.T) {
	const bits = 8
	ys := []int64{5, -5, 0, 127, -128}
	n := len(ys)
	circ := BatchSignCircuit(bits, n)
	mask := uint64(255)
	y1 := []uint64{11, 22, 33, 44, 55}
	y0 := make([]uint64, n)
	for k, y := range ys {
		y0[k] = (uint64(y) - y1[k]) & mask
	}
	out := garbleEval(t, circ, VecToBits(y1, bits), VecToBits(y0, bits), 55)
	for k, y := range ys {
		want := byte(0)
		if y >= 0 {
			want = 1
		}
		if out[k] != want {
			t.Errorf("neuron %d (y=%d): sign bit %d want %d", k, y, out[k], want)
		}
	}
}

func TestNumANDCounts(t *testing.T) {
	const bits = 32
	relu := BatchReLUCircuit(bits, 1)
	sign := BatchSignCircuit(bits, 1)
	if relu.NumAND() <= sign.NumAND() {
		t.Errorf("ReLU ANDs (%d) should exceed sign-only ANDs (%d)", relu.NumAND(), sign.NumAND())
	}
	// Sign circuit should cost roughly one adder: bits-1 ANDs.
	if sign.NumAND() != bits-1 {
		t.Errorf("sign ANDs = %d, want %d", sign.NumAND(), bits-1)
	}
	// Alg-2 ReLU: adder (bits-1) + and-bit (bits) + sub (bits-1).
	if want := 3*bits - 2; relu.NumAND() != want {
		t.Errorf("relu ANDs = %d, want %d", relu.NumAND(), want)
	}
	// A circuit built as a struct literal has no count cached by Finish.
	lit := &Circuit{NumGarbler: relu.NumGarbler, NumEvaluator: relu.NumEvaluator,
		NumWires: relu.NumWires, Gates: relu.Gates, Outputs: relu.Outputs}
	if lit.NumAND() != relu.NumAND() || lit.TableBytes() != relu.TableBytes() {
		t.Errorf("struct-literal circuit counts %d ANDs, built one %d", lit.NumAND(), relu.NumAND())
	}
	if !reflect.DeepEqual(BatchReLUCircuit(bits, 3), BatchMaxPoolCircuit(bits, 1, 3, true)) {
		t.Error("ReLU circuit differs from the window-1 max-pool circuit")
	}
}

func TestGarbleInputLengthError(t *testing.T) {
	c := BatchSignCircuit(8, 1)
	if _, err := Garble(c, []byte{1}, prg.New(prg.SeedFromInt(1))); err == nil {
		t.Error("short garbler bits accepted")
	}
}

func TestEvaluateValidation(t *testing.T) {
	c := BatchSignCircuit(8, 1)
	g, err := Garble(c, make([]byte, c.NumGarbler), prg.New(prg.SeedFromInt(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(c, g.Tables[:len(g.Tables)-1], g.GarblerLabels, make([]Label, c.NumEvaluator), g.Decode); err == nil {
		t.Error("truncated tables accepted")
	}
	if _, err := Evaluate(c, g.Tables, g.GarblerLabels[:1], make([]Label, c.NumEvaluator), g.Decode); err == nil {
		t.Error("short garbler labels accepted")
	}
}

func TestBitsRoundTrip(t *testing.T) {
	for _, x := range []uint64{0, 1, 0xdeadbeef, 1 << 63} {
		if BitsToUint(UintToBits(x, 64)) != x {
			t.Errorf("roundtrip %x failed", x)
		}
	}
	v := []uint64{3, 9, 250}
	got := BitsToVec(VecToBits(v, 8), 8, 3)
	for i := range v {
		if got[i] != v[i] {
			t.Errorf("vec roundtrip[%d] = %d", i, got[i])
		}
	}
}
