package main

import (
	"fmt"
	"time"

	"abnn2"
	"abnn2/internal/baseot"
	"abnn2/internal/gc"
	"abnn2/internal/otext"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
)

// Chunk sizes of the program's non-linear layers (core's reluChunk and
// poolChunk): one garbled circuit per chunk of neurons or pool windows.
// The probes garble the circuit of one chunk at the workload's shape.
const (
	reluChunk  = 2048
	poolChunk  = 512
	ringBits   = 32
	kk13N      = 256 // the triplet generator's Walsh-Hadamard code size
	probeFloor = 150 * time.Millisecond
)

// shape is what one request of a workload asks of the kernels.
type shape struct {
	circuits []*gc.Circuit // every garbled circuit of one request
	probe    *gc.Circuit   // the first layer's first chunk
	kk13OTs  int           // 1-out-of-N OTs of one correlation (all layers)
	padBytes int           // OT payload per OT of the first layer
}

// workloadShape derives a request's kernel work from the public
// architecture, the way core chunks it.
func workloadShape(arch abnn2.Arch, batch int) (shape, error) {
	var sh shape
	sc, err := quant.Parse(arch.SchemeName)
	if err != nil {
		return sh, err
	}
	for _, l := range arch.Layers {
		sh.kk13OTs += sc.Gamma() * l.Out * l.ColRows()
		switch {
		case l.Pool != nil:
			win := l.Pool.K * l.Pool.K
			sh.add(l.OutputSize()*batch, poolChunk, func(n int) *gc.Circuit {
				return gc.BatchMaxPoolCircuit(ringBits, win, n, l.ReLU)
			})
		case l.ReLU:
			sh.add(l.OutputSize()*batch, reluChunk, func(n int) *gc.Circuit {
				return gc.BatchReLUCircuit(ringBits, n)
			})
		}
	}
	if sh.probe == nil {
		return sh, fmt.Errorf("architecture has no non-linear layer")
	}
	sh.padBytes = arch.Layers[0].Cols() * batch * ringBits / 8
	return sh, nil
}

// add appends the circuits of n neurons or windows, chunked; chunks of
// one size share one circuit.
func (sh *shape) add(n, chunk int, build func(int) *gc.Circuit) {
	built := map[int]*gc.Circuit{}
	for start := 0; start < n; start += chunk {
		size := min(chunk, n-start)
		if built[size] == nil {
			built[size] = build(size)
		}
		sh.circuits = append(sh.circuits, built[size])
		if sh.probe == nil {
			sh.probe = built[size]
		}
	}
}

func (sh shape) andGates() int {
	n := 0
	for _, c := range sh.circuits {
		n += c.NumAND()
	}
	return n
}

func (sh shape) labelOTs() int {
	n := 0
	for _, c := range sh.circuits {
		n += c.NumEvaluator
	}
	return n
}

// probeResult is the per-operation cost of each kernel next to how many
// operations one request or correlation of the workload makes.
type probeResult struct {
	garbleNsPerAND, evalNsPerAND float64
	andGates                     int
	kk13NsPerOT, iknpNsPerOT     float64
	kk13OTs, iknpOTs             int
	baseOTms                     float64
	baseOTs                      int
	hashNs                       float64
	hashBytes                    int
}

// timeOp runs fn until probeFloor has passed and at least three times,
// and returns the median time of one call.
func timeOp(fn func() error) (time.Duration, error) {
	var runs []float64
	start := time.Now()
	for len(runs) < 3 || time.Since(start) < probeFloor {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		runs = append(runs, float64(time.Since(t)))
	}
	return time.Duration(quantile(runs, 0.5)), nil
}

// pair runs the two ends of a two-party kernel over an in-memory pipe;
// an error on either end closes the pipe so the other end returns too.
func pair(a, b abnn2.Conn, fa, fb func() error) error {
	errB := make(chan error, 1)
	go func() {
		err := fb()
		if err != nil {
			a.Close()
		}
		errB <- err
	}()
	err := fa()
	if err != nil {
		b.Close()
	}
	if eb := <-errB; err == nil {
		err = eb
	}
	return err
}

func randomBits(rng *prg.PRG, n int) []byte {
	raw := rng.Bytes(n)
	for i := range raw {
		raw[i] &= 1
	}
	return raw
}

// runProbes times the kernels the workload's requests run, at its shapes.
func runProbes(arch abnn2.Arch, batch int) (probeResult, error) {
	var r probeResult
	sh, err := workloadShape(arch, batch)
	if err != nil {
		return r, err
	}
	rng := prg.New(prg.SeedFromInt(0x9b0e))
	c := sh.probe
	r.andGates, r.kk13OTs, r.iknpOTs = sh.andGates(), sh.kk13OTs, sh.labelOTs()

	gbits, ebits := randomBits(rng, c.NumGarbler), randomBits(rng, c.NumEvaluator)
	var g *gc.Garbled
	d, err := timeOp(func() (err error) { g, err = gc.Garble(c, gbits, rng); return err })
	if err != nil {
		return r, fmt.Errorf("garble probe: %w", err)
	}
	r.garbleNsPerAND = float64(d) / float64(c.NumAND())
	labels := make([]gc.Label, c.NumEvaluator)
	for i := range labels {
		labels[i] = g.EvalPairs[i][ebits[i]]
	}
	d, err = timeOp(func() error {
		_, err := gc.Evaluate(c, g.Tables, g.GarblerLabels, labels, g.Decode)
		return err
	})
	if err != nil {
		return r, fmt.Errorf("evaluate probe: %w", err)
	}
	r.evalNsPerAND = float64(d) / float64(c.NumAND())

	kk13 := otext.WalshHadamardCode(kk13N)
	if r.kk13NsPerOT, err = probeExtend(kk13, min(sh.kk13OTs, 4096), kk13N, rng); err != nil {
		return r, fmt.Errorf("kk13 probe: %w", err)
	}
	iknp := otext.RepetitionCode()
	if r.iknpNsPerOT, err = probeExtend(iknp, c.NumEvaluator, 2, rng); err != nil {
		return r, fmt.Errorf("iknp probe: %w", err)
	}

	// One Dial sets up both extensions, so it runs one base OT per column
	// of each code.
	r.baseOTs = kk13.WidthBits() + iknp.WidthBits()
	if d, err = probeBaseOT(r.baseOTs, rng); err != nil {
		return r, fmt.Errorf("base OT probe: %w", err)
	}
	r.baseOTms = ms(d)

	r.hashBytes = sh.padBytes
	o := prg.NewFastOracle("perfbench")
	row := rng.Bytes(kk13.WidthBits() / 8)
	const calls = 1000
	d, _ = timeOp(func() error {
		for i := uint64(0); i < calls; i++ {
			o.Hash(1, i, 0, row, sh.padBytes)
		}
		return nil
	})
	r.hashNs = float64(d) / calls
	return r, nil
}

// probeExtend sets up one OT extension over a pipe and times Extend of m
// OTs on both ends together; it returns nanoseconds per OT.
func probeExtend(code otext.Code, m, n int, rng *prg.PRG) (float64, error) {
	a, b := abnn2.Pipe()
	defer a.Close()
	defer b.Close()
	var snd *otext.Sender
	var rcv *otext.Receiver
	srng, rrng := rng.Child("sender"), rng.Child("receiver")
	err := pair(a, b,
		func() (err error) { snd, err = otext.NewSender(a, code, 1, srng); return err },
		func() (err error) { rcv, err = otext.NewReceiver(b, code, 1, rrng); return err })
	if err != nil {
		return 0, err
	}
	choices := make([]int, m)
	for i := range choices {
		choices[i] = rng.Intn(n)
	}
	d, err := timeOp(func() error {
		return pair(a, b,
			func() error { _, err := snd.Extend(m); return err },
			func() error { _, err := rcv.Extend(choices); return err })
	})
	return float64(d) / float64(m), err
}

// probeBaseOT times one batch of n base OTs, both ends.
func probeBaseOT(n int, rng *prg.PRG) (time.Duration, error) {
	a, b := abnn2.Pipe()
	defer a.Close()
	defer b.Close()
	pairs := make([][2]baseot.Msg, n)
	for i := range pairs {
		copy(pairs[i][0][:], rng.Bytes(baseot.MsgSize))
		copy(pairs[i][1][:], rng.Bytes(baseot.MsgSize))
	}
	choices := randomBits(rng, n)
	srng, rrng := rng.Child("sender"), rng.Child("receiver")
	return timeOp(func() error {
		return pair(a, b,
			func() error { return baseot.Send(a, pairs, srng) },
			func() error { _, err := baseot.Receive(b, choices, rrng); return err })
	})
}
