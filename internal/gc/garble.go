package gc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"abnn2/internal/prg"
)

// LabelSize is the wire-label width in bytes (kappa = 128 bits).
const LabelSize = 16

// Label is a wire label.
type Label [LabelSize]byte

func (l Label) lsb() byte { return l[0] & 1 }

func xorLabel(a, b Label) Label {
	var out Label
	binary.LittleEndian.PutUint64(out[0:8],
		binary.LittleEndian.Uint64(a[0:8])^binary.LittleEndian.Uint64(b[0:8]))
	binary.LittleEndian.PutUint64(out[8:16],
		binary.LittleEndian.Uint64(a[8:16])^binary.LittleEndian.Uint64(b[8:16]))
	return out
}

// mmoCipher is the fixed-key AES permutation behind the garbling hash.
var mmoCipher = func() cipher.Block {
	sum := sha256.Sum256([]byte("abnn2/gc/halfgates"))
	c, err := aes.NewCipher(sum[:16])
	if err != nil {
		panic(err) // impossible: fixed key length
	}
	return c
}()

// hasher computes the garbling hash H(label, tweak), instantiated as the
// standard fixed-key AES MMO construction pi(x) XOR x with the tweak
// folded into the input (JustGarble / half-gates paper instantiation).
// The scratch buffers live in the struct so the hot loop performs no
// allocations (slices passed through the cipher.Block interface would
// otherwise escape to the heap on every call).
type hasher struct {
	x, e [16]byte
}

func (h *hasher) hash(l Label, tweak uint64) Label {
	binary.LittleEndian.PutUint64(h.x[0:8], binary.LittleEndian.Uint64(l[0:8])^tweak)
	copy(h.x[8:16], l[8:16])
	mmoCipher.Encrypt(h.e[:], h.x[:])
	var out Label
	binary.LittleEndian.PutUint64(out[0:8],
		binary.LittleEndian.Uint64(h.e[0:8])^binary.LittleEndian.Uint64(h.x[0:8]))
	binary.LittleEndian.PutUint64(out[8:16],
		binary.LittleEndian.Uint64(h.e[8:16])^binary.LittleEndian.Uint64(h.x[8:16]))
	return out
}

// Garbled is the garbler's output: everything the evaluator needs except
// the evaluator's own input labels (those are transferred by OT).
type Garbled struct {
	Tables        []byte  // 2 * LabelSize bytes per AND gate, in gate order
	GarblerLabels []Label // active labels for the garbler's inputs
	Decode        []byte  // one permute bit per output wire
	// Evaluator input label pairs, kept by the garbler for the OTs.
	EvalPairs [][2]Label
}

// Garble garbles the circuit under fresh randomness from rng, with the
// garbler's input bits given. Free-XOR with global offset R (lsb 1),
// half-gates for AND, INV by XORing the output-wire semantics with R.
func Garble(c *Circuit, garblerBits []byte, rng *prg.PRG) (*Garbled, error) {
	if len(garblerBits) != c.NumGarbler {
		return nil, fmt.Errorf("gc: %d garbler bits for %d input wires", len(garblerBits), c.NumGarbler)
	}
	var r Label
	copy(r[:], rng.Bytes(LabelSize))
	r[0] |= 1 // point-and-permute: lsb of R must be 1

	zero := make([]Label, c.NumWires) // zero label of every wire
	// Input labels are drawn up to 256 at a time through one bounded
	// buffer: the AES-CTR stream is the same as one 16-byte draw per
	// wire, without an allocation per wire or an input-sized copy.
	nIn := c.NumGarbler + c.NumEvaluator
	buf := make([]byte, min(nIn, 256)*LabelSize)
	for lo := 0; lo < nIn; lo += 256 {
		k := min(nIn-lo, 256)
		rng.Fill(buf[:k*LabelSize])
		for i := 0; i < k; i++ {
			copy(zero[lo+i][:], buf[i*LabelSize:])
		}
	}
	tables := make([]byte, c.TableBytes())
	h := new(hasher)
	var gateIndex uint64
	for _, g := range c.Gates {
		switch g.Kind {
		case GateXOR:
			zero[g.Out] = xorLabel(zero[g.A], zero[g.B])
		case GateINV:
			// NOT flips semantics: label for "out=0" is label for "a=1".
			zero[g.Out] = xorLabel(zero[g.A], r)
		case GateAND:
			a0 := zero[g.A]
			b0 := zero[g.B]
			pa := a0.lsb()
			pb := b0.lsb()
			j := 2 * gateIndex
			jp := 2*gateIndex + 1
			// Four hashes per AND: H(a0), H(a1), H(b0), H(b1).
			ha0 := h.hash(a0, j)
			hb0 := h.hash(b0, jp)
			// Generator half-gate.
			tg := xorLabel(ha0, h.hash(xorLabel(a0, r), j))
			if pb == 1 {
				tg = xorLabel(tg, r)
			}
			wg := ha0
			if pa == 1 {
				wg = xorLabel(wg, tg)
			}
			// Evaluator half-gate.
			te := xorLabel(xorLabel(hb0, h.hash(xorLabel(b0, r), jp)), a0)
			we := hb0
			if pb == 1 {
				we = xorLabel(we, xorLabel(te, a0))
			}
			zero[g.Out] = xorLabel(wg, we)
			off := gateIndex * 2 * LabelSize
			copy(tables[off:], tg[:])
			copy(tables[off+LabelSize:], te[:])
			gateIndex++
		default:
			return nil, fmt.Errorf("gc: unknown gate kind %d", g.Kind)
		}
	}

	out := &Garbled{Tables: tables}
	out.GarblerLabels = make([]Label, c.NumGarbler)
	for i := 0; i < c.NumGarbler; i++ {
		if garblerBits[i]&1 == 1 {
			out.GarblerLabels[i] = xorLabel(zero[i], r)
		} else {
			out.GarblerLabels[i] = zero[i]
		}
	}
	out.EvalPairs = make([][2]Label, c.NumEvaluator)
	for i := 0; i < c.NumEvaluator; i++ {
		w := c.NumGarbler + i
		out.EvalPairs[i][0] = zero[w]
		out.EvalPairs[i][1] = xorLabel(zero[w], r)
	}
	out.Decode = make([]byte, len(c.Outputs))
	for i, w := range c.Outputs {
		out.Decode[i] = zero[w].lsb()
	}
	return out, nil
}

// Evaluate runs the evaluator over the garbled tables given active labels
// for all inputs, returning the decoded output bits.
func Evaluate(c *Circuit, tables []byte, garblerLabels, evalLabels []Label, decode []byte) ([]byte, error) {
	if len(garblerLabels) != c.NumGarbler || len(evalLabels) != c.NumEvaluator {
		return nil, fmt.Errorf("gc: label count mismatch (%d,%d) want (%d,%d)",
			len(garblerLabels), len(evalLabels), c.NumGarbler, c.NumEvaluator)
	}
	if len(tables) != c.TableBytes() {
		return nil, fmt.Errorf("gc: tables are %d bytes, want %d", len(tables), c.TableBytes())
	}
	if len(decode) != len(c.Outputs) {
		return nil, fmt.Errorf("gc: decode has %d bits, want %d", len(decode), len(c.Outputs))
	}
	active := make([]Label, c.NumWires)
	copy(active, garblerLabels)
	copy(active[c.NumGarbler:], evalLabels)
	h := new(hasher)
	var gateIndex uint64
	for _, g := range c.Gates {
		switch g.Kind {
		case GateXOR:
			active[g.Out] = xorLabel(active[g.A], active[g.B])
		case GateINV:
			active[g.Out] = active[g.A]
		case GateAND:
			var tg, te Label
			copy(tg[:], tables[gateIndex*2*LabelSize:])
			copy(te[:], tables[gateIndex*2*LabelSize+LabelSize:])
			j := 2 * gateIndex
			jp := 2*gateIndex + 1
			a := active[g.A]
			b := active[g.B]
			wg := h.hash(a, j)
			if a.lsb() == 1 {
				wg = xorLabel(wg, tg)
			}
			we := h.hash(b, jp)
			if b.lsb() == 1 {
				we = xorLabel(we, xorLabel(te, a))
			}
			active[g.Out] = xorLabel(wg, we)
			gateIndex++
		default:
			return nil, fmt.Errorf("gc: unknown gate kind %d", g.Kind)
		}
	}
	bits := make([]byte, len(c.Outputs))
	for i, w := range c.Outputs {
		bits[i] = active[w].lsb() ^ decode[i]
	}
	return bits, nil
}
