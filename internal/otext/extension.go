package otext

import (
	"fmt"
	"sync"

	"abnn2/internal/bitmat"
	"abnn2/internal/par"
	"abnn2/internal/prg"
	"abnn2/internal/transport"
)

var oracle = prg.NewFastOracle("otext/pad")

// Sender is the OT-extension sender: the party that, after each Extend
// round, can derive the pad for every candidate choice value. In ABNN2's
// multiplication protocol the *client* (holding the random share r) plays
// this role. A Sender is bound to one connection and one code and must be
// paired with exactly one Receiver performing the same sequence of calls.
// Not safe for concurrent use.
type Sender struct {
	conn    transport.Conn
	code    Code
	session uint64
	s       []byte // secret column-selection bits, WidthBits/8 bytes
	cols    []*prg.PRG
	counter uint64
	workers int
}

// Receiver is the OT-extension receiver: the party whose per-OT choice
// selects which pad it learns. In ABNN2 the *server* (holding quantized
// weight fragments) plays this role.
type Receiver struct {
	conn    transport.Conn
	code    Code
	session uint64
	cols0   []*prg.PRG
	cols1   []*prg.PRG
	counter uint64
	workers int
}

// SetWorkers bounds the kernel parallelism of Extend (column PRG
// expansion and the bit-matrix transposes). 0, the default, means one
// worker per CPU. Any setting produces identical bytes on the wire;
// Extend itself remains a single-goroutine call.
func (s *Sender) SetWorkers(n int) { s.workers = n }

// SetWorkers mirrors Sender.SetWorkers for the receiving role.
func (r *Receiver) SetWorkers(n int) { r.workers = n }

// NewSender performs the base-OT setup for the sending role. It samples
// the secret s and receives one seed per code column via base OT (the
// extension sender is the base-OT receiver, per IKNP). rng supplies all
// local randomness.
func NewSender(conn transport.Conn, code Code, session uint64, rng *prg.PRG) (*Sender, error) {
	w := code.WidthBits()
	s := rng.Bytes(w / 8)
	choices := make([]byte, w)
	for i := 0; i < w; i++ {
		choices[i] = (s[i/8] >> (uint(i) % 8)) & 1
	}
	seeds, err := baseOTReceive(conn, choices, rng)
	if err != nil {
		return nil, fmt.Errorf("otext: sender setup: %w", err)
	}
	cols := make([]*prg.PRG, w)
	for i := range cols {
		cols[i] = prg.New(seeds[i])
	}
	return &Sender{conn: conn, code: code, session: session, s: s, cols: cols}, nil
}

// NewReceiver performs the base-OT setup for the receiving role, sending
// one seed pair per code column.
func NewReceiver(conn transport.Conn, code Code, session uint64, rng *prg.PRG) (*Receiver, error) {
	w := code.WidthBits()
	pairs := make([][2][16]byte, w)
	cols0 := make([]*prg.PRG, w)
	cols1 := make([]*prg.PRG, w)
	for i := 0; i < w; i++ {
		var s0, s1 prg.Seed
		copy(s0[:], rng.Bytes(prg.SeedSize))
		copy(s1[:], rng.Bytes(prg.SeedSize))
		pairs[i][0] = s0
		pairs[i][1] = s1
		cols0[i] = prg.New(s0)
		cols1[i] = prg.New(s1)
	}
	if err := baseOTSend(conn, pairs, rng); err != nil {
		return nil, fmt.Errorf("otext: receiver setup: %w", err)
	}
	return &Receiver{conn: conn, code: code, session: session, cols0: cols0, cols1: cols1}, nil
}

// SenderBlock holds the sender's state for one Extend round of m OTs: the
// rows q_j from which pads for any choice value are derived.
type SenderBlock struct {
	s    *Sender
	q    *bitmat.Matrix // m_pad x w
	base uint64         // counter value of OT 0 in this block
	m    int
	// Pad is on the hot path and called concurrently by the parallel
	// triplet kernels; per-call buffers come from a pool so the hot loop
	// allocates nothing and goroutines never share scratch space.
	scratch sync.Pool // *padScratch
}

// padScratch holds the per-goroutine codeword and masked-row buffers of
// SenderBlock.Pad.
type padScratch struct {
	code   []byte
	masked []byte
}

// ReceiverBlock holds the receiver's state for one Extend round: rows t_j
// yielding the pad for the choice made at each index.
type ReceiverBlock struct {
	r       *Receiver
	t       *bitmat.Matrix // m_pad x w
	base    uint64
	m       int
	choices []int
}

// Extend runs one extension round for m OTs from the receiver side with
// the given per-OT choices (each in [0, code.N())). It transmits the
// masked column matrix to the sender (one flight of m_pad * WidthBits
// bits) and returns the block from which pads are derived.
func (r *Receiver) Extend(choices []int) (*ReceiverBlock, error) {
	m := len(choices)
	if m == 0 {
		return nil, fmt.Errorf("otext: Extend with zero OTs")
	}
	w := r.code.WidthBits()
	mPad := (m + 7) &^ 7
	mBytes := mPad / 8

	for _, c := range choices {
		if c < 0 || c >= r.code.N() {
			return nil, fmt.Errorf("otext: choice %d out of range [0,%d)", c, r.code.N())
		}
	}
	// Code matrix: row j = C(choices[j]); padding rows use choice 0.
	codeRows := bitmat.New(mPad, w)
	par.Map(r.workers, mPad, func(j int) {
		c := 0
		if j < m {
			c = choices[j]
		}
		r.code.Encode(c, codeRows.Row(j))
	})
	codeCols := bitmat.TransposePar(codeRows, r.workers) // w x mPad

	// Column streams: t_i from seed0, u_i = t_i XOR PRG1_i XOR c_i.
	// Each column owns its pair of PRGs, so columns expand independently
	// on the worker pool; the per-column PRG states advance exactly as
	// they would sequentially, keeping the wire bytes identical.
	tCols := bitmat.New(w, mPad)
	u := make([]byte, w*mBytes)
	par.Chunks(r.workers, w, func(_, lo, hi int) {
		tmp := make([]byte, mBytes)
		for i := lo; i < hi; i++ {
			ti := tCols.Row(i)
			r.cols0[i].Fill(ti)
			ui := u[i*mBytes : (i+1)*mBytes]
			r.cols1[i].Fill(tmp)
			ci := codeCols.Row(i)
			for k := 0; k < mBytes; k++ {
				ui[k] = ti[k] ^ tmp[k] ^ ci[k]
			}
		}
	})
	if err := r.conn.Send(u); err != nil {
		return nil, fmt.Errorf("otext: send u matrix: %w", err)
	}
	blk := &ReceiverBlock{
		r:       r,
		t:       bitmat.TransposePar(tCols, r.workers), // mPad x w
		base:    r.counter,
		m:       m,
		choices: choices,
	}
	r.counter += uint64(mPad)
	return blk, nil
}

// Extend runs one extension round for m OTs from the sender side,
// consuming the receiver's masked column matrix.
func (s *Sender) Extend(m int) (*SenderBlock, error) {
	if m == 0 {
		return nil, fmt.Errorf("otext: Extend with zero OTs")
	}
	w := s.code.WidthBits()
	mPad := (m + 7) &^ 7
	mBytes := mPad / 8
	u, err := s.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("otext: recv u matrix: %w", err)
	}
	if len(u) != w*mBytes {
		return nil, fmt.Errorf("otext: u matrix is %d bytes, want %d", len(u), w*mBytes)
	}
	qCols := bitmat.New(w, mPad)
	par.Map(s.workers, w, func(i int) {
		qi := qCols.Row(i)
		s.cols[i].Fill(qi)
		if (s.s[i/8]>>(uint(i)%8))&1 == 1 {
			ui := u[i*mBytes : (i+1)*mBytes]
			for k := 0; k < mBytes; k++ {
				qi[k] ^= ui[k]
			}
		}
	})
	blk := &SenderBlock{
		s:    s,
		q:    bitmat.TransposePar(qCols, s.workers),
		base: s.counter,
		m:    m,
	}
	s.counter += uint64(mPad)
	return blk, nil
}

// Conn exposes the underlying connection so protocols layered on the pads
// can send their payload flights on the same channel.
func (s *Sender) Conn() transport.Conn { return s.conn }

// Conn exposes the underlying connection (see Sender.Conn).
func (r *Receiver) Conn() transport.Conn { return r.conn }

// Count returns the number of OTs in the block.
func (b *SenderBlock) Count() int   { return b.m }
func (b *ReceiverBlock) Count() int { return b.m }

// Pad returns nbytes of pad material for OT index j and candidate choice
// value v: H(session, counter_j, q_j XOR (C(v) AND s)). The receiver can
// compute the same bytes only for v equal to its choice at j. Safe for
// concurrent use, so payload derivation can fan out across OT indices.
func (b *SenderBlock) Pad(j, v int, nbytes int) []byte {
	out := make([]byte, nbytes)
	b.PadXOR(out, j, v)
	return out
}

// PadXOR XORs the len(dst)-byte pad Pad(j, v, len(dst)) into dst without
// allocating. Safe for concurrent use.
func (b *SenderBlock) PadXOR(dst []byte, j, v int) {
	if j < 0 || j >= b.m {
		panic(fmt.Sprintf("otext: pad index %d out of range [0,%d)", j, b.m))
	}
	row := b.q.Row(j)
	ps, _ := b.scratch.Get().(*padScratch)
	if ps == nil {
		ps = &padScratch{code: make([]byte, b.s.code.WidthBits()/8), masked: make([]byte, len(row))}
	}
	b.s.code.Encode(v, ps.code)
	sbits := b.s.s
	for k := range row {
		ps.masked[k] = row[k] ^ (ps.code[k] & sbits[k])
	}
	oracle.HashXOR(dst, b.s.session, b.base+uint64(j), 0, ps.masked)
	b.scratch.Put(ps)
}

// Pad returns nbytes of pad material for OT index j, valid for the choice
// the receiver made at that index: H(session, counter_j, t_j). Safe for
// concurrent use (the block is read-only after Extend).
func (b *ReceiverBlock) Pad(j, nbytes int) []byte {
	out := make([]byte, nbytes)
	b.PadXOR(out, j)
	return out
}

// PadXOR XORs the len(dst)-byte pad Pad(j, len(dst)) into dst without
// allocating. Safe for concurrent use.
func (b *ReceiverBlock) PadXOR(dst []byte, j int) {
	if j < 0 || j >= b.m {
		panic(fmt.Sprintf("otext: pad index %d out of range [0,%d)", j, b.m))
	}
	oracle.HashXOR(dst, b.r.session, b.base+uint64(j), 0, b.t.Row(j))
}

// Choice returns the receiver's choice at index j.
func (b *ReceiverBlock) Choice(j int) int { return b.choices[j] }
