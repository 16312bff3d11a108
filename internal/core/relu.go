package core

import (
	"fmt"

	"abnn2/internal/gc"
	"abnn2/internal/prg"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// Non-linear layer protocols (paper section 4.2). Every garbled layer —
// ReLU, max-pool, or pool with fused ReLU — runs through one Reshare
// per party; a ReLU layer is the window-1 max-pool with the ReLU fused
// in (see Junction). ReLU layers come in two variants:
//
//   - ReLUGC: Algorithm 2 run for f = ReLU. The whole computation
//     y = y0+y1, z0 = max(0,y) - z1 happens inside one garbled circuit;
//     nothing about y leaks. ~3l AND gates per neuron.
//
//   - ReLUOptimized: the section 4.2 optimisation. The garbled circuit
//     only computes the comparison bit b = [y >= 0] (~l AND gates); the
//     reshare happens with one plain message per direction. The paper
//     accepts that b itself is revealed ("if so, then we reconstruct z
//     and reshare it; if not, we only need to reshare zero") — i.e. the
//     sign pattern of activations leaks to both parties. We implement it
//     faithfully and document the leakage; the ablation benchmark
//     quantifies what the leak buys.
//
// Roles: client garbles (it knows y1 and the fresh output share z1 chosen
// offline), server evaluates (inputs y0, learns z0).

// ReLUVariant selects the non-linear protocol.
type ReLUVariant int

const (
	// ReLUGC is the fully oblivious Algorithm-2 protocol.
	ReLUGC ReLUVariant = iota
	// ReLUOptimized is the section 4.2 sign-bit protocol (leaks signs).
	ReLUOptimized
)

func (v ReLUVariant) String() string {
	if v == ReLUOptimized {
		return "optimized"
	}
	return "gc"
}

// gcChunkWords bounds the pre-activation words one garbled circuit
// takes from each party: 2048 neurons of a ReLU layer, or 512 2x2
// pooling windows. Chunking keeps the garbler/evaluator working set tens
// of megabytes even at batch size 128 on the 784->128 layer (one circuit
// per chunk; a layer's chunks garble as one batch).
const gcChunkWords = 2048

// circuitKind names a circuit family of the garbled-circuit session.
type circuitKind uint8

const (
	poolCircuit   circuitKind = iota // max-pool with optional ReLU; ReLU is win 1
	signCircuit                      // the optimised ReLU's comparison bits
	argmaxCircuit                    // batched argmax: win candidates, n samples
)

// circuitKey identifies one deterministic circuit shape.
type circuitKey struct {
	kind   circuitKind
	bits   uint
	win, n int
	relu   bool
}

// circuitCache memoizes the deterministic per-chunk circuits; building a
// 2048-word circuit is pure CPU and identical across chunks and runs.
type circuitCache map[circuitKey]*gc.Circuit

func (cc circuitCache) get(k circuitKey) *gc.Circuit {
	if c, ok := cc[k]; ok {
		return c
	}
	var c *gc.Circuit
	switch k.kind {
	case signCircuit:
		c = gc.BatchSignCircuit(k.bits, k.n)
	case argmaxCircuit:
		c = gc.BatchArgmaxCircuit(k.bits, k.win, indexBits(k.win), k.n)
	default:
		c = gc.BatchMaxPoolCircuit(k.bits, k.win, k.n, k.relu)
	}
	cc[k] = c
	return c
}

// Junction is the public shape of one garbled non-linear layer
// (Algorithm 2): output i is the maximum of the pre-activations indexed
// by Windows[i], clamped at zero when ReLU is set, and reshared against
// the client's pre-chosen z1[i]. A ReLU layer is the window-1 case:
// Windows is nil and output i reads pre-activation i.
type Junction struct {
	Windows [][]int
	ReLU    bool
	// Variant selects the window-1 ReLU protocol: ReLUOptimized swaps in
	// the sign circuit plus one plain reshare round per chunk.
	Variant ReLUVariant
}

// sign reports whether j runs the optimised sign-bit protocol.
func (j Junction) sign() bool { return j.Windows == nil && j.ReLU && j.Variant == ReLUOptimized }

// span names the trace span of j's layer.
func (j Junction) span() string {
	if j.Windows != nil {
		return "pool"
	}
	return "relu"
}

// shape checks j over n pre-activations and returns its window width
// and output count.
func (j Junction) shape(n int) (win, outs int, err error) {
	if j.Variant != ReLUGC && j.Variant != ReLUOptimized {
		return 0, 0, fmt.Errorf("core: unknown ReLU variant %d", j.Variant)
	}
	if j.Windows == nil {
		return 1, n, nil
	}
	if len(j.Windows) == 0 || len(j.Windows[0]) == 0 {
		return 0, 0, fmt.Errorf("core: empty pooling window set")
	}
	win = len(j.Windows[0])
	for i, w := range j.Windows {
		if len(w) != win {
			return 0, 0, fmt.Errorf("core: window %d has %d elements, want %d", i, len(w), win)
		}
	}
	return win, len(j.Windows), nil
}

// gather returns v's values for outputs [lo, hi) in window order.
func (j Junction) gather(v ring.Vec, lo, hi int) ring.Vec {
	if j.Windows == nil {
		return v[lo:hi]
	}
	out := make(ring.Vec, 0, (hi-lo)*len(j.Windows[0]))
	for _, w := range j.Windows[lo:hi] {
		for _, idx := range w {
			out = append(out, v[idx])
		}
	}
	return out
}

// chunks splits n outputs of win input words each into [start, end)
// spans of at most gcChunkWords input words (at least one output).
func chunks(n, win int) [][2]int {
	per := max(gcChunkWords/win, 1)
	var spans [][2]int
	for start := 0; start < n; start += per {
		spans = append(spans, [2]int{start, min(start+per, n)})
	}
	return spans
}

// circuits returns j's per-chunk circuits over its output spans.
func (cc circuitCache) circuits(j Junction, bits uint, win int, spans [][2]int) []*gc.Circuit {
	circs := make([]*gc.Circuit, len(spans))
	for k, sp := range spans {
		key := circuitKey{kind: poolCircuit, bits: bits, win: win, n: sp[1] - sp[0], relu: j.ReLU}
		if j.sign() {
			key = circuitKey{kind: signCircuit, bits: bits, win: 1, n: sp[1] - sp[0]}
		}
		circs[k] = cc.get(key)
	}
	return circs
}

// ClientNonlinear runs the client (garbler) side of activation layers.
type ClientNonlinear struct {
	rg      ring.Ring
	garb    *gc.Garbler
	conn    transport.Conn
	cache   circuitCache
	maskRng *prg.PRG // masks for output-hiding protocols (argmax)
}

// ServerNonlinear runs the server (evaluator) side.
type ServerNonlinear struct {
	rg    ring.Ring
	eval  *gc.Evaluator
	conn  transport.Conn
	cache circuitCache
}

// NewClientNonlinear sets up the garbler role (base OTs for label
// transfer happen here).
func NewClientNonlinear(conn transport.Conn, rg ring.Ring, session uint64, rng *prg.PRG) (*ClientNonlinear, error) {
	g, err := gc.NewGarbler(conn, session, rng)
	if err != nil {
		return nil, err
	}
	return &ClientNonlinear{rg: rg, garb: g, conn: conn, cache: circuitCache{}, maskRng: rng.Child("argmax-masks")}, nil
}

// NewServerNonlinear sets up the evaluator role.
func NewServerNonlinear(conn transport.Conn, rg ring.Ring, session uint64, rng *prg.PRG) (*ServerNonlinear, error) {
	e, err := gc.NewEvaluator(conn, session, rng)
	if err != nil {
		return nil, err
	}
	return &ServerNonlinear{rg: rg, eval: e, conn: conn, cache: circuitCache{}}, nil
}

// SetWorkers bounds the kernel parallelism of the GC session underneath
// (garbling and label OT). 0 means one worker per CPU.
func (c *ClientNonlinear) SetWorkers(n int) { c.garb.SetWorkers(n) }

// SetWorkers mirrors ClientNonlinear.SetWorkers.
func (s *ServerNonlinear) SetWorkers(n int) { s.eval.SetWorkers(n) }

// Reshare runs the client (garbler) side of one garbled non-linear
// layer: y1 is the client's share of the pre-activations, z1 its
// pre-chosen share of the outputs (one per window). The outputs split
// into chunks of at most gcChunkWords input words, one circuit per
// chunk; the chunks garble as one batch so the CPU-heavy half fans out
// across the worker pool while the wire flights keep a fixed order.
func (c *ClientNonlinear) Reshare(j Junction, y1, z1 ring.Vec) error {
	win, n, err := j.shape(len(y1))
	if err != nil {
		return err
	}
	if len(z1) != n {
		return fmt.Errorf("core: %d z1 shares for %d outputs", len(z1), n)
	}
	bits := c.rg.Bits()
	spans := chunks(n, win)
	ins := make([][]byte, len(spans))
	for k, sp := range spans {
		ins[k] = gc.VecToBits(j.gather(y1, sp[0], sp[1]), bits)
		if !j.sign() {
			ins[k] = append(ins[k], gc.VecToBits(z1[sp[0]:sp[1]], bits)...)
		}
	}
	if err := c.garb.RunBatch(c.cache.circuits(j, bits, win, spans), ins); err != nil {
		return fmt.Errorf("core: %s garble: %w", j.span(), err)
	}
	if !j.sign() {
		return nil
	}
	// Optimized variant: receive the sign bits the server decoded, then
	// reshare — one round per chunk, in chunk order.
	for _, sp := range spans {
		n := sp[1] - sp[0]
		raw, err := c.conn.Recv()
		if err != nil {
			return fmt.Errorf("core: recv sign bits: %w", err)
		}
		if len(raw) != (n+7)/8 {
			return fmt.Errorf("core: sign bits are %d bytes, want %d", len(raw), (n+7)/8)
		}
		d := make(ring.Vec, n)
		for i := 0; i < n; i++ {
			if (raw[i/8]>>(uint(i)%8))&1 == 1 {
				d[i] = c.rg.Sub(y1[sp[0]+i], z1[sp[0]+i]) // positive: z0 = y0 + (y1 - z1)
			} else {
				d[i] = c.rg.Neg(z1[sp[0]+i]) // negative: z0 = -z1
			}
		}
		if err := c.conn.Send(c.rg.AppendVec(nil, d)); err != nil {
			return fmt.Errorf("core: send reshare: %w", err)
		}
	}
	return nil
}

// Reshare runs the server (evaluator) side over its share y0 of the
// pre-activations, returning its shares z0 of the outputs. Chunking
// mirrors the client's Reshare.
func (s *ServerNonlinear) Reshare(j Junction, y0 ring.Vec) (ring.Vec, error) {
	win, n, err := j.shape(len(y0))
	if err != nil {
		return nil, err
	}
	bits := s.rg.Bits()
	spans := chunks(n, win)
	ins := make([][]byte, len(spans))
	for k, sp := range spans {
		ins[k] = gc.VecToBits(j.gather(y0, sp[0], sp[1]), bits)
	}
	outs, err := s.eval.RunBatch(s.cache.circuits(j, bits, win, spans), ins)
	if err != nil {
		return nil, fmt.Errorf("core: %s evaluate: %w", j.span(), err)
	}
	z0 := make(ring.Vec, 0, n)
	for k, sp := range spans {
		n := sp[1] - sp[0]
		if !j.sign() {
			z0 = append(z0, gc.BitsToVec(outs[k], bits, n)...)
			continue
		}
		// Optimized variant: reveal signs and reshare per chunk,
		// mirroring the client's round order.
		signs := outs[k]
		packed := make([]byte, (n+7)/8)
		for i, b := range signs {
			if b&1 == 1 {
				packed[i/8] |= 1 << (uint(i) % 8)
			}
		}
		if err := s.conn.Send(packed); err != nil {
			return nil, fmt.Errorf("core: send sign bits: %w", err)
		}
		raw, err := s.conn.Recv()
		if err != nil {
			return nil, fmt.Errorf("core: recv reshare: %w", err)
		}
		d, rest, err := s.rg.DecodeVec(raw, n)
		if err != nil || len(rest) != 0 {
			return nil, fmt.Errorf("core: reshare message malformed: %v", err)
		}
		for i := 0; i < n; i++ {
			if signs[i]&1 == 1 {
				z0 = append(z0, s.rg.Add(y0[sp[0]+i], d[i]))
			} else {
				z0 = append(z0, d[i])
			}
		}
	}
	return z0, nil
}
