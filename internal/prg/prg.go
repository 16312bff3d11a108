// Package prg provides the symmetric-key primitives the protocols are
// built from: an AES-CTR pseudorandom generator and a SHA-256-based random
// oracle with explicit domain separation.
//
// Protocol code never touches crypto/rand directly except through NewSeed;
// all other randomness is expanded from seeds so that tests and benchmarks
// are deterministic.
package prg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"abnn2/internal/ring"
)

// SeedSize is the PRG seed length in bytes (AES-128 key).
const SeedSize = 16

// Seed is a 128-bit PRG seed, matching the computational security parameter
// kappa = 128 used throughout the paper.
type Seed [SeedSize]byte

// NewSeed samples a fresh seed from the OS CSPRNG.
func NewSeed() Seed {
	var s Seed
	if _, err := rand.Read(s[:]); err != nil {
		// The OS CSPRNG failing is unrecoverable for a cryptographic
		// protocol; continuing silently would be a security bug.
		panic(fmt.Sprintf("prg: OS entropy unavailable: %v", err))
	}
	return s
}

// SeedFromInt derives a deterministic seed from an integer. For tests and
// reproducible benchmarks only.
func SeedFromInt(v uint64) Seed {
	var s Seed
	binary.LittleEndian.PutUint64(s[:8], v)
	s[8] = 0x5e // fixed tweak so SeedFromInt(0) != all-zero key
	return s
}

// PRG is a deterministic byte stream expanded from a Seed via AES-128-CTR.
// It is not safe for concurrent use.
type PRG struct {
	stream cipher.Stream
}

// New returns a PRG expanding the given seed.
func New(seed Seed) *PRG {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		// aes.NewCipher only fails on bad key length, impossible here.
		panic(fmt.Sprintf("prg: %v", err))
	}
	var iv [aes.BlockSize]byte
	return &PRG{stream: cipher.NewCTR(block, iv[:])}
}

// Fill overwrites p with pseudorandom bytes.
func (g *PRG) Fill(p []byte) {
	for i := range p {
		p[i] = 0
	}
	g.stream.XORKeyStream(p, p)
}

// Bytes returns n fresh pseudorandom bytes.
func (g *PRG) Bytes(n int) []byte {
	p := make([]byte, n)
	g.stream.XORKeyStream(p, p)
	return p
}

// Read implements io.Reader (never fails), so a PRG can drive stdlib
// consumers such as crypto/rand.Prime for deterministic key generation.
func (g *PRG) Read(p []byte) (int, error) {
	g.Fill(p)
	return len(p), nil
}

// Uint64 returns a pseudorandom 64-bit value.
func (g *PRG) Uint64() uint64 {
	var buf [8]byte
	g.stream.XORKeyStream(buf[:], buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// Elem samples a uniform element of r.
func (g *PRG) Elem(r ring.Ring) ring.Elem {
	return g.Uint64() & r.Mask()
}

// Vec samples a uniform n-element vector over r.
func (g *PRG) Vec(r ring.Ring, n int) ring.Vec {
	v := make(ring.Vec, n)
	g.fillElems(v, r.Mask())
	return v
}

// Mat samples a uniform rows x cols matrix over r.
func (g *PRG) Mat(r ring.Ring, rows, cols int) *ring.Mat {
	m := ring.NewMat(rows, cols)
	g.fillElems(m.Data, r.Mask())
	return m
}

// fillElems sets dst[i] to the i-th little-endian 64-bit word of the
// stream, masked: the same values len(dst) successive Uint64 calls
// return, drawn a bounded buffer at a time instead of one 8-byte CTR
// call per element.
func (g *PRG) fillElems(dst ring.Vec, mask uint64) {
	const maxChunk = 512 // elements per keystream call
	buf := make([]byte, 8*min(len(dst), maxChunk))
	for len(dst) > 0 {
		k := min(len(dst), maxChunk)
		chunk := buf[:8*k]
		clear(chunk)
		g.stream.XORKeyStream(chunk, chunk)
		for i := 0; i < k; i++ {
			dst[i] = binary.LittleEndian.Uint64(chunk[8*i:]) & mask
		}
		dst = dst[k:]
	}
}

// Intn returns a pseudorandom value in [0, n). n must be positive.
// Rejection sampling keeps the distribution exactly uniform.
func (g *PRG) Intn(n int) int {
	if n <= 0 {
		panic("prg: Intn with non-positive bound")
	}
	bound := uint64(n)
	limit := ^uint64(0) - ^uint64(0)%bound
	for {
		v := g.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Child derives an independent sub-PRG labelled by tag. Used to hand
// deterministic but distinct randomness to protocol sub-components.
func (g *PRG) Child(tag string) *PRG {
	var seed Seed
	material := g.Bytes(SeedSize)
	h := sha256.New()
	h.Write([]byte("prg-child"))
	h.Write([]byte(tag))
	h.Write(material)
	copy(seed[:], h.Sum(nil))
	return New(seed)
}
