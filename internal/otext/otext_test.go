package otext

import (
	"bytes"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// setupPair creates a connected Sender/Receiver pair over a metered pipe.
func setupPair(t *testing.T, code Code) (*Sender, *Receiver, *transport.Meter, func()) {
	t.Helper()
	ca, cb, m := transport.MeteredPipe()
	var (
		snd     *Sender
		sndErr  error
		wgSetup sync.WaitGroup
	)
	wgSetup.Add(1)
	go func() {
		defer wgSetup.Done()
		snd, sndErr = NewSender(ca, code, 7, prg.New(prg.SeedFromInt(11)))
	}()
	rcv, rcvErr := NewReceiver(cb, code, 7, prg.New(prg.SeedFromInt(22)))
	wgSetup.Wait()
	if sndErr != nil || rcvErr != nil {
		t.Fatalf("setup: sender=%v receiver=%v", sndErr, rcvErr)
	}
	return snd, rcv, m, func() { ca.Close() }
}

func TestCodes(t *testing.T) {
	rep := RepetitionCode()
	if rep.N() != 2 || rep.WidthBits() != 128 {
		t.Fatalf("repetition code: N=%d width=%d", rep.N(), rep.WidthBits())
	}
	buf := make([]byte, 16)
	rep.Encode(0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("C(0) not all-zero")
		}
	}
	rep.Encode(1, buf)
	for _, b := range buf {
		if b != 0xFF {
			t.Fatal("C(1) not all-one")
		}
	}

	wh := WalshHadamardCode(16)
	if wh.N() != 16 || wh.WidthBits() != 256 {
		t.Fatalf("WH code: N=%d width=%d", wh.N(), wh.WidthBits())
	}
}

// The WH code must have minimum distance >= Kappa between any two
// codewords in range; this is the property receiver privacy rests on.
func TestWalshHadamardDistance(t *testing.T) {
	c := WalshHadamardCode(256)
	words := make([][]byte, 256)
	for v := 0; v < 256; v++ {
		words[v] = make([]byte, 32)
		c.Encode(v, words[v])
	}
	for a := 0; a < 256; a++ {
		for b := a + 1; b < 256; b++ {
			d := 0
			for k := 0; k < 32; k++ {
				x := words[a][k] ^ words[b][k]
				for ; x != 0; x &= x - 1 {
					d++
				}
			}
			if d < Kappa {
				t.Fatalf("distance(%d,%d) = %d < %d", a, b, d, Kappa)
			}
		}
	}
}

func TestCodeForSelection(t *testing.T) {
	if CodeFor(2).WidthBits() != 128 {
		t.Error("CodeFor(2) should be the repetition code")
	}
	if CodeFor(4).WidthBits() != 256 {
		t.Error("CodeFor(4) should be Walsh-Hadamard")
	}
}

func TestPadAgreement1of2(t *testing.T) {
	snd, rcv, _, done := setupPair(t, RepetitionCode())
	defer done()
	choices := []int{0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0}
	var (
		sb  *SenderBlock
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sb, err = snd.Extend(len(choices))
	}()
	rb, rerr := rcv.Extend(choices)
	wg.Wait()
	if err != nil || rerr != nil {
		t.Fatalf("extend: %v %v", err, rerr)
	}
	for j, c := range choices {
		want := sb.Pad(j, c, 32)
		got := rb.Pad(j, 32)
		if !bytes.Equal(want, got) {
			t.Fatalf("OT %d: pads disagree for chosen value", j)
		}
		other := sb.Pad(j, 1-c, 32)
		if bytes.Equal(other, got) {
			t.Fatalf("OT %d: receiver pad matches unchosen value", j)
		}
	}
}

// The XOR-into forms must add exactly Pad's bytes to dst, for every pad
// width a caller uses (ring elements, labels, and multi-block pads).
func TestPadXORMatchesPad(t *testing.T) {
	snd, rcv, _, done := setupPair(t, WalshHadamardCode(4))
	defer done()
	choices := []int{0, 3, 1, 2, 2}
	var (
		sb  *SenderBlock
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sb, err = snd.Extend(len(choices))
	}()
	rb, rerr := rcv.Extend(choices)
	wg.Wait()
	if err != nil || rerr != nil {
		t.Fatalf("extend: %v %v", err, rerr)
	}
	g := prg.New(prg.SeedFromInt(9))
	for _, n := range []int{8, 16, 20, 128} {
		for j, c := range choices {
			for v := 0; v < 4; v++ {
				dst := g.Bytes(n)
				want := prg.XORBytes(make([]byte, n), dst, sb.Pad(j, v, n))
				sb.PadXOR(dst, j, v)
				if !bytes.Equal(dst, want) {
					t.Fatalf("n=%d OT %d v=%d: SenderBlock.PadXOR diverged from Pad", n, j, v)
				}
			}
			dst := g.Bytes(n)
			want := prg.XORBytes(make([]byte, n), dst, rb.Pad(j, n))
			rb.PadXOR(dst, j)
			if !bytes.Equal(dst, want) {
				t.Fatalf("n=%d OT %d: ReceiverBlock.PadXOR diverged from Pad", n, j)
			}
			if !bytes.Equal(rb.Pad(j, n), sb.Pad(j, c, n)) {
				t.Fatalf("n=%d OT %d: pads disagree for the chosen value", n, j)
			}
		}
	}
}

func TestPadAgreement1ofN(t *testing.T) {
	for _, n := range []int{4, 16, 256} {
		snd, rcv, _, done := setupPair(t, WalshHadamardCode(n))
		g := prg.New(prg.SeedFromInt(uint64(n)))
		const m = 40
		choices := make([]int, m)
		for i := range choices {
			choices[i] = g.Intn(n)
		}
		var (
			sb *SenderBlock
			wg sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb, _ = snd.Extend(m)
		}()
		rb, err := rcv.Extend(choices)
		wg.Wait()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for j, c := range choices {
			if !bytes.Equal(sb.Pad(j, c, 16), rb.Pad(j, 16)) {
				t.Fatalf("n=%d OT %d: pad mismatch", n, j)
			}
			for v := 0; v < n; v++ {
				if v != c && bytes.Equal(sb.Pad(j, v, 16), rb.Pad(j, 16)) {
					t.Fatalf("n=%d OT %d: pad for %d collides with choice %d", n, j, v, c)
				}
			}
		}
		done()
	}
}

func TestSequentialExtendsIndependent(t *testing.T) {
	snd, rcv, _, done := setupPair(t, RepetitionCode())
	defer done()
	for round := 0; round < 3; round++ {
		choices := []int{round % 2, 1, 0}
		var (
			sb *SenderBlock
			wg sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb, _ = snd.Extend(len(choices))
		}()
		rb, err := rcv.Extend(choices)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for j, c := range choices {
			if !bytes.Equal(sb.Pad(j, c, 16), rb.Pad(j, 16)) {
				t.Fatalf("round %d OT %d mismatch", round, j)
			}
		}
	}
}

func TestChosenMessages1ofN(t *testing.T) {
	const n, m, msgLen = 8, 20, 24
	snd, rcv, _, done := setupPair(t, WalshHadamardCode(n))
	defer done()
	g := prg.New(prg.SeedFromInt(77))
	msgs := make([][][]byte, m)
	for j := range msgs {
		msgs[j] = make([][]byte, n)
		for v := range msgs[j] {
			msgs[j][v] = g.Bytes(msgLen)
		}
	}
	choices := make([]int, m)
	for i := range choices {
		choices[i] = g.Intn(n)
	}
	var (
		sendErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendErr = snd.SendChosen(msgs, msgLen)
	}()
	got, err := rcv.RecvChosen(choices, msgLen)
	wg.Wait()
	if sendErr != nil || err != nil {
		t.Fatalf("chosen: %v %v", sendErr, err)
	}
	for j := range got {
		if !bytes.Equal(got[j], msgs[j][choices[j]]) {
			t.Fatalf("OT %d: wrong message", j)
		}
	}
}

func TestCorrelatedRing(t *testing.T) {
	rg := ring.New(32)
	snd, rcv, _, done := setupPair(t, RepetitionCode())
	defer done()
	g := prg.New(prg.SeedFromInt(88))
	const m = 50
	deltas := g.Vec(rg, m)
	bits := make([]byte, m)
	for i := range bits {
		bits[i] = byte(g.Intn(2))
	}
	var (
		x0   ring.Vec
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		x0, serr = snd.SendCorrelatedRing(rg, deltas)
	}()
	xb, err := rcv.RecvCorrelatedRing(rg, bits)
	wg.Wait()
	if serr != nil || err != nil {
		t.Fatalf("cot: %v %v", serr, err)
	}
	for j := 0; j < m; j++ {
		want := x0[j]
		if bits[j] == 1 {
			want = rg.Add(x0[j], deltas[j])
		}
		if xb[j] != want {
			t.Fatalf("cot %d: got %d want %d (bit %d)", j, xb[j], want, bits[j])
		}
	}
}

func TestRandomOT(t *testing.T) {
	const n, m = 4, 10
	snd, rcv, _, done := setupPair(t, WalshHadamardCode(n))
	defer done()
	choices := []int{0, 1, 2, 3, 3, 2, 1, 0, 2, 2}
	var (
		pads [][][]byte
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		pads, _ = snd.SendRandom(m, 16)
	}()
	got, err := rcv.RecvRandom(choices, 16)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if !bytes.Equal(got[j], pads[j][choices[j]]) {
			t.Fatalf("random OT %d mismatch", j)
		}
	}
}

// Communication of one Extend must match the analytic formula:
// m_pad * WidthBits bits from receiver to sender.
func TestExtendCommunication(t *testing.T) {
	snd, rcv, meter, done := setupPair(t, WalshHadamardCode(16))
	defer done()
	meter.Reset()
	const m = 64
	choices := make([]int, m)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		snd.Extend(m)
	}()
	if _, err := rcv.Extend(choices); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	s := meter.Snapshot()
	wantBytes := int64(m * 256 / 8)
	// Receiver is party B in setupPair ordering.
	if s.BytesBA != wantBytes {
		t.Errorf("u matrix bytes = %d, want %d", s.BytesBA, wantBytes)
	}
	if s.BytesAB != 0 {
		t.Errorf("sender sent %d bytes during Extend, want 0", s.BytesAB)
	}
}

func TestChoiceOutOfRange(t *testing.T) {
	snd, rcv, _, done := setupPair(t, WalshHadamardCode(4))
	defer done()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The sender side will error out when the pipe closes or succeed
		// reading a matrix; either way, don't block the test.
		snd.Extend(1)
	}()
	_, err := rcv.Extend([]int{7})
	if err == nil {
		t.Error("choice 7 accepted for N=4")
	}
	done() // unblock sender goroutine
	wg.Wait()
}
