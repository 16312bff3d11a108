package core

import (
	"fmt"
	"math/bits"

	"abnn2/internal/gc"
	"abnn2/internal/ring"
)

// Secure argmax, built on the same garbled-circuit session as the ReLU
// and max-pool layers. An extension beyond the paper's FC-only
// evaluation: the client learns only the predicted class instead of the
// full score vector.

// ArgmaxClient runs the client side of secure argmax over a batch of
// score-share columns (y1 laid out sample-major: sample k occupies
// y1[k*n:(k+1)*n]). The client learns the argmax of each sample; the
// server learns nothing (it forwards masked indices).
func (c *ClientNonlinear) ArgmaxClient(y1 ring.Vec, n, batch int) ([]int, error) {
	if len(y1) != n*batch {
		return nil, fmt.Errorf("core: argmax shares %d for %d x %d", len(y1), n, batch)
	}
	idxBits := indexBits(n)
	rbits := c.rg.Bits()
	circ := c.cache.get(circuitKey{kind: argmaxCircuit, bits: rbits, win: n, n: batch})
	// Fresh masks from the garbler's randomness pool: derive from a
	// dedicated PRG child so masks never repeat across calls.
	masks := make([]uint64, batch)
	maskBits := make([]byte, 0, batch*int(idxBits))
	for k := range masks {
		masks[k] = c.maskRng.Uint64() & ((1 << idxBits) - 1)
		maskBits = append(maskBits, gc.UintToBits(masks[k], idxBits)...)
	}
	in := append(gc.VecToBits(y1, rbits), maskBits...)
	if err := c.garb.Run(circ, in); err != nil {
		return nil, fmt.Errorf("core: argmax garble: %w", err)
	}
	raw, err := c.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: argmax recv: %w", err)
	}
	want := (batch*int(idxBits) + 7) / 8
	if len(raw) != want {
		return nil, fmt.Errorf("core: argmax message is %d bytes, want %d", len(raw), want)
	}
	out := make([]int, batch)
	for k := 0; k < batch; k++ {
		var v uint64
		for i := 0; i < int(idxBits); i++ {
			bit := (raw[(k*int(idxBits)+i)/8] >> (uint(k*int(idxBits)+i) % 8)) & 1
			v |= uint64(bit) << uint(i)
		}
		idx := int(v ^ masks[k])
		if idx >= n {
			return nil, fmt.Errorf("core: argmax index %d out of range (corrupt transcript)", idx)
		}
		out[k] = idx
	}
	return out, nil
}

// ArgmaxServer runs the server side: evaluate the circuit and forward the
// masked indices to the client.
func (s *ServerNonlinear) ArgmaxServer(y0 ring.Vec, n, batch int) error {
	if len(y0) != n*batch {
		return fmt.Errorf("core: argmax shares %d for %d x %d", len(y0), n, batch)
	}
	rbits := s.rg.Bits()
	circ := s.cache.get(circuitKey{kind: argmaxCircuit, bits: rbits, win: n, n: batch})
	out, err := s.eval.Run(circ, gc.VecToBits(y0, rbits))
	if err != nil {
		return fmt.Errorf("core: argmax evaluate: %w", err)
	}
	packed := make([]byte, (len(out)+7)/8)
	for i, b := range out {
		if b&1 == 1 {
			packed[i/8] |= 1 << (uint(i) % 8)
		}
	}
	if err := s.conn.Send(packed); err != nil {
		return fmt.Errorf("core: argmax send: %w", err)
	}
	return nil
}

// indexBits returns the index width for n candidates.
func indexBits(n int) uint {
	if n <= 1 {
		return 1
	}
	return uint(bits.Len(uint(n - 1)))
}
