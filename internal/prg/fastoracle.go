package prg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sync"
)

// FastOracle is a fixed-key-AES instantiation of the random oracle used
// on the protocols' hot paths (OT-extension pads, where millions of
// evaluations dominate runtime). Modern MPC implementations (JustGarble,
// emp-toolkit, ABY) model a random oracle with a fixed-key AES
// permutation for exactly this reason; with AES-NI one evaluation is an
// order of magnitude cheaper than SHA-256.
//
// Construction (pi = AES-128 with a per-oracle fixed key derived from the
// domain label):
//
//	absorb:  h <- pi(h XOR b) XOR h XOR b        (Miyaguchi-Preneel style)
//	         over header block (session, index, tweak) then data blocks,
//	         finalised with a length block
//	expand:  out_i = pi(h XOR tau_i) XOR h       (Even-Mansour style)
//
// where tau_i are distinct counter blocks tagged with a domain byte so
// absorption and expansion queries cannot collide. This is the standard
// heuristic instantiation; see DESIGN.md for the security model note.
type FastOracle struct {
	block   cipher.Block
	scratch sync.Pool // *oracleScratch
}

// oracleScratch holds the per-call buffers. Without it every Encrypt call
// through the cipher.Block interface would heap-allocate its operands
// (escape analysis cannot see through the interface), dominating the
// OT-extension hot path.
type oracleScratch struct {
	h, b, x, e [16]byte
}

// NewFastOracle derives the fixed AES key from the domain label.
func NewFastOracle(label string) *FastOracle {
	sum := sha256.Sum256([]byte("abnn2/fastoracle/" + label))
	blk, err := aes.NewCipher(sum[:16])
	if err != nil {
		panic(fmt.Sprintf("prg: %v", err)) // impossible: key length is fixed
	}
	return &FastOracle{block: blk}
}

// Hash returns n oracle bytes for the query (session, index, tweak, data).
func (o *FastOracle) Hash(session, index, tweak uint64, data []byte, n int) []byte {
	out := make([]byte, n)
	o.HashXOR(out, session, index, tweak, data)
	return out
}

// HashXOR XORs the first len(dst) oracle bytes for the query (session,
// index, tweak, data) into dst: dst ^= Hash(session, index, tweak, data,
// len(dst)), without allocating. Safe for concurrent use.
func (o *FastOracle) HashXOR(dst []byte, session, index, tweak uint64, data []byte) {
	s, _ := o.scratch.Get().(*oracleScratch)
	if s == nil {
		s = new(oracleScratch)
	}
	clear(s.h[:])
	// Header blocks.
	binary.LittleEndian.PutUint64(s.b[0:], session)
	binary.LittleEndian.PutUint64(s.b[8:], index)
	o.absorb(s)
	binary.LittleEndian.PutUint64(s.b[0:], tweak)
	binary.LittleEndian.PutUint64(s.b[8:], uint64(len(data)))
	o.absorb(s)
	// Data blocks, zero-padded.
	for off := 0; off+16 <= len(data); off += 16 {
		copy(s.b[:], data[off:off+16])
		o.absorb(s)
	}
	if tail := len(data) % 16; tail != 0 {
		clear(s.b[:])
		copy(s.b[:], data[len(data)-tail:])
		o.absorb(s)
	}
	// Finalisation block (domain-separates absorb from expand).
	clear(s.b[:])
	s.b[15] = 0xA5
	o.absorb(s)
	// Expand: block i is pi(h XOR tau_i) XOR h; a short last block is
	// truncated.
	for i := 0; i*16 < len(dst); i++ {
		binary.LittleEndian.PutUint64(s.x[0:], uint64(i)^binary.LittleEndian.Uint64(s.h[0:8]))
		binary.LittleEndian.PutUint64(s.x[8:], binary.LittleEndian.Uint64(s.h[8:16]))
		s.x[15] ^= 0xEE
		o.block.Encrypt(s.e[:], s.x[:])
		xorBlock(&s.e, &s.e, &s.h)
		if out := dst[i*16:]; len(out) >= 16 {
			xorBlock((*[16]byte)(out), (*[16]byte)(out), &s.e)
		} else {
			subtle.XORBytes(out, out, s.e[:])
		}
	}
	o.scratch.Put(s)
}

// absorb updates h <- pi(h XOR b) XOR h XOR b, consuming s.b.
func (o *FastOracle) absorb(s *oracleScratch) {
	xorBlock(&s.x, &s.h, &s.b)
	o.block.Encrypt(s.e[:], s.x[:])
	xorBlock(&s.h, &s.e, &s.x)
}

// xorBlock sets dst = a XOR b for one 16-byte block, two words at a time.
func xorBlock(dst, a, b *[16]byte) {
	binary.LittleEndian.PutUint64(dst[0:], binary.LittleEndian.Uint64(a[0:])^binary.LittleEndian.Uint64(b[0:]))
	binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(a[8:])^binary.LittleEndian.Uint64(b[8:]))
}
