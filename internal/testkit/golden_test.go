package testkit

import (
	"flag"
	"sync"
	"testing"

	"abnn2"
	"abnn2/internal/baseot"
	"abnn2/internal/core"
	"abnn2/internal/gc"
	"abnn2/internal/nn"
	"abnn2/internal/otext"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

var update = flag.Bool("update", false, "rewrite golden transcript files")

// Golden wire-transcript tests: every protocol runs with both parties
// seeded, each party's flights are recorded, and the per-flight digests
// are compared byte-for-byte against testdata/transcripts/. A diff means
// the wire format changed — deliberately (regenerate with -update) or by
// accident (a refactor that was supposed to be transcript-neutral).

// pairConns returns the two recorded ends of an in-memory pipe.
func pairConns() (*RecordingConn, *RecordingConn) {
	a, b := transport.Pipe()
	return Record(a), Record(b)
}

// runPair drives the two protocol roles concurrently and fails the test
// on either error.
func runPair(t *testing.T, aSide, bSide func() error) {
	t.Helper()
	var (
		wg   sync.WaitGroup
		aErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		aErr = aSide()
	}()
	bErr := bSide()
	wg.Wait()
	if aErr != nil || bErr != nil {
		t.Fatalf("protocol run: a=%v b=%v", aErr, bErr)
	}
}

func compare(t *testing.T, name, protocol string, a, b *RecordingConn) {
	t.Helper()
	parties := []PartyTranscript{
		{Party: "a", T: a.Transcript()},
		{Party: "b", T: b.Transcript()},
	}
	if err := CompareGolden(name, protocol, parties, *update); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenBaseOT(t *testing.T) {
	sc, rc := pairConns()
	const n = 8
	pairs := make([][2]baseot.Msg, n)
	g := prg.New(prg.SeedFromInt(1))
	for i := range pairs {
		copy(pairs[i][0][:], g.Bytes(baseot.MsgSize))
		copy(pairs[i][1][:], g.Bytes(baseot.MsgSize))
	}
	choices := []byte{0, 1, 1, 0, 1, 0, 0, 1}
	runPair(t,
		func() error { return baseot.Send(sc, pairs, prg.New(prg.SeedFromInt(2))) },
		func() error {
			_, err := baseot.Receive(rc, choices, prg.New(prg.SeedFromInt(3)))
			return err
		})
	compare(t, "baseot", "chou-orlandi n=8", sc, rc)
}

// otPair builds a seeded, recorded Sender/Receiver pair over code.
func otPair(t *testing.T, code otext.Code) (*otext.Sender, *otext.Receiver, *RecordingConn, *RecordingConn) {
	t.Helper()
	sc, rc := pairConns()
	var (
		snd  *otext.Sender
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		snd, serr = otext.NewSender(sc, code, 7, prg.New(prg.SeedFromInt(11)))
	}()
	rcv, rerr := otext.NewReceiver(rc, code, 7, prg.New(prg.SeedFromInt(22)))
	wg.Wait()
	if serr != nil || rerr != nil {
		t.Fatalf("ot setup: %v %v", serr, rerr)
	}
	return snd, rcv, sc, rc
}

func chosenMsgs(n, m, msgLen int) ([][][]byte, []int) {
	g := prg.New(prg.SeedFromInt(5))
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
	return msgs, choices
}

func TestGoldenIKNP(t *testing.T) {
	snd, rcv, sc, rc := otPair(t, otext.RepetitionCode())
	msgs, choices := chosenMsgs(2, 5, 8)
	runPair(t,
		func() error { return snd.SendChosen(msgs, 8) },
		func() error {
			_, err := rcv.RecvChosen(choices, 8)
			return err
		})
	compare(t, "iknp-chosen", "iknp chosen m=5 msgLen=8", sc, rc)
}

func TestGoldenKK13(t *testing.T) {
	snd, rcv, sc, rc := otPair(t, otext.WalshHadamardCode(16))
	msgs, choices := chosenMsgs(16, 3, 8)
	runPair(t,
		func() error { return snd.SendChosen(msgs, 8) },
		func() error {
			_, err := rcv.RecvChosen(choices, 8)
			return err
		})
	compare(t, "kk13-chosen", "kk13 wh16 chosen m=3 msgLen=8", sc, rc)
}

func TestGoldenCOT(t *testing.T) {
	rg := ring.New(32)
	snd, rcv, sc, rc := otPair(t, otext.RepetitionCode())
	g := prg.New(prg.SeedFromInt(6))
	deltas := g.Vec(rg, 6)
	bits := []byte{1, 0, 1, 1, 0, 0}
	runPair(t,
		func() error {
			_, err := snd.SendCorrelatedRing(rg, deltas)
			return err
		},
		func() error {
			_, err := rcv.RecvCorrelatedRing(rg, bits)
			return err
		})
	compare(t, "cot-ring32", "correlated OT ring=32 m=6", sc, rc)
}

func TestGoldenGC(t *testing.T) {
	gcConn, ecConn := pairConns()
	var (
		garb *gc.Garbler
		gerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		garb, gerr = gc.NewGarbler(gcConn, 7, prg.New(prg.SeedFromInt(31)))
	}()
	eval, eerr := gc.NewEvaluator(ecConn, 7, prg.New(prg.SeedFromInt(32)))
	wg.Wait()
	if gerr != nil || eerr != nil {
		t.Fatalf("gc setup: %v %v", gerr, eerr)
	}
	c := gc.BatchReLUCircuit(8, 4)
	y1 := []uint64{3, 250, 17, 128}
	z1 := []uint64{5, 9, 200, 44}
	y0 := []uint64{100, 10, 77, 60}
	garbBits := append(gc.VecToBits(y1, 8), gc.VecToBits(z1, 8)...)
	runPair(t,
		func() error { return garb.Run(c, garbBits) },
		func() error {
			_, err := eval.Run(c, gc.VecToBits(y0, 8))
			return err
		})
	compare(t, "gc-relu", "garbled ReLU bits=8 n=4", gcConn, ecConn)
}

func goldenMatmul(t *testing.T, name string, o int, mode core.Mode) {
	t.Helper()
	rg := ring.New(32)
	scheme := quant.NewBitScheme(true, 2, 2)
	p := core.Params{Ring: rg, Scheme: scheme}
	sh := core.MatShape{M: 3, N: 4, O: o}
	g := prg.New(prg.SeedFromInt(9))
	W := make([]int64, sh.M*sh.N)
	for i := range W {
		W[i] = int64(g.Intn(16) - 8)
	}
	R := g.Mat(rg, sh.N, sh.O)
	cc, sc := pairConns()
	var (
		cli  *core.ClientTriplets
		cerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli, cerr = core.NewClientTriplets(cc, p, 7, prg.New(prg.SeedFromInt(41)))
	}()
	srv, serr := core.NewServerTripletsSeeded(sc, p, 7, prg.New(prg.SeedFromInt(42)))
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("triplet setup: %v %v", cerr, serr)
	}
	runPair(t,
		func() error {
			_, err := cli.GenerateClient(sh, R, mode)
			return err
		},
		func() error {
			_, err := srv.GenerateServer(sh, W, mode)
			return err
		})
	compare(t, name, "abnn2 matmul "+mode.String(), cc, sc)
}

func TestGoldenMatmulOneBatch(t *testing.T) { goldenMatmul(t, "matmul-onebatch", 1, core.OneBatch) }
func TestGoldenMatmulMultiBatch(t *testing.T) {
	goldenMatmul(t, "matmul-multibatch", 2, core.MultiBatch)
}

// nonlinearPair sets up a seeded, recorded garbled-circuit session at
// ring width 16 and returns both roles with their recorded ends.
func nonlinearPair(t *testing.T) (*core.ClientNonlinear, *core.ServerNonlinear, *RecordingConn, *RecordingConn) {
	t.Helper()
	rg := ring.New(16)
	cc, sc := pairConns()
	var (
		cli  *core.ClientNonlinear
		cerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli, cerr = core.NewClientNonlinear(cc, rg, 7, prg.New(prg.SeedFromInt(51)))
	}()
	srv, serr := core.NewServerNonlinear(sc, rg, 7, prg.New(prg.SeedFromInt(52)))
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("nonlinear setup: %v %v", cerr, serr)
	}
	return cli, srv, cc, sc
}

func goldenReLU(t *testing.T, name string, variant core.ReLUVariant) {
	t.Helper()
	cli, srv, cc, sc := nonlinearPair(t)
	rg := ring.New(16)
	g := prg.New(prg.SeedFromInt(53))
	y1, z1, y0 := g.Vec(rg, 5), g.Vec(rg, 5), g.Vec(rg, 5)
	runPair(t,
		func() error { return cli.Reshare(core.Junction{ReLU: true, Variant: variant}, y1, z1) },
		func() error {
			_, err := srv.Reshare(core.Junction{ReLU: true, Variant: variant}, y0)
			return err
		})
	compare(t, name, "core relu "+name, cc, sc)
}

func TestGoldenReLUGC(t *testing.T)        { goldenReLU(t, "relu-gc", core.ReLUGC) }
func TestGoldenReLUOptimized(t *testing.T) { goldenReLU(t, "relu-optimized", core.ReLUOptimized) }

// goldenPool pins max pooling over nWin scattered 2x2 (four-value)
// windows: window i gathers y[i], y[i+nWin], y[i+2nWin], y[i+3nWin], the
// channel-major layout real conv layers produce.
func goldenPool(t *testing.T, name string, nWin int, withReLU bool) {
	t.Helper()
	cli, srv, cc, sc := nonlinearPair(t)
	rg := ring.New(16)
	windows := make([][]int, nWin)
	for i := range windows {
		windows[i] = []int{i, i + nWin, i + 2*nWin, i + 3*nWin}
	}
	g := prg.New(prg.SeedFromInt(54))
	y1, z1, y0 := g.Vec(rg, 4*nWin), g.Vec(rg, nWin), g.Vec(rg, 4*nWin)
	runPair(t,
		func() error { return cli.Reshare(core.Junction{Windows: windows, ReLU: withReLU}, y1, z1) },
		func() error {
			_, err := srv.Reshare(core.Junction{Windows: windows, ReLU: withReLU}, y0)
			return err
		})
	compare(t, name, "core maxpool "+name, cc, sc)
}

func TestGoldenPoolReLU(t *testing.T) { goldenPool(t, "pool-relu", 6, true) }

// TestGoldenPoolChunked crosses the 512-window circuit boundary.
func TestGoldenPoolChunked(t *testing.T) { goldenPool(t, "pool-chunked", 515, false) }

func TestGoldenArgmax(t *testing.T) {
	cli, srv, cc, sc := nonlinearPair(t)
	rg := ring.New(16)
	const n, batch = 5, 3
	g := prg.New(prg.SeedFromInt(55))
	y1, y0 := g.Vec(rg, n*batch), g.Vec(rg, n*batch)
	runPair(t,
		func() error {
			_, err := cli.ArgmaxClient(y1, n, batch)
			return err
		},
		func() error { return srv.ArgmaxServer(y0, n, batch) })
	compare(t, "argmax", "core argmax n=5 batch=3", cc, sc)
}

// sessionTranscripts runs a full facade session (setup + one batch) for
// a generated case with both parties seeded, at the given worker count
// and inputs, and returns the two per-party transcripts. A non-nil
// mutate hook edits each party's Config before the run (the banked
// golden uses it to attach a correlation bank and trace collectors).
func sessionTranscripts(t *testing.T, c *Case, workers int, inputs [][]float64,
	mutate func(server bool, cfg *abnn2.Config)) (server, client *Transcript) {
	t.Helper()
	data, err := nn.MarshalQuantized(c.Model)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := abnn2.LoadQuantizedModel(data)
	if err != nil {
		t.Fatal(err)
	}
	sConn, cConn := pairConns()
	scfg := abnn2.Config{RingBits: c.RingBits, Seed: 2*c.Seed + 1, Workers: workers}
	ccfg := abnn2.Config{RingBits: c.RingBits, Seed: 2*c.Seed + 2, Workers: workers}
	if mutate != nil {
		mutate(true, &scfg)
		mutate(false, &ccfg)
	}
	srvErr := make(chan error, 1)
	go func() {
		_, err := abnn2.Serve(sConn, qm, scfg)
		srvErr <- err
	}()
	cli, err := abnn2.Dial(cConn, qm.Arch(), ccfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := cli.Infer(inputs); err != nil {
		t.Fatalf("infer: %v", err)
	}
	cli.Close()
	if err := <-srvErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	return sConn.Transcript(), cConn.Transcript()
}

// TestGoldenSession pins the full end-to-end session transcript (setup,
// offline, online) of a fixed generated model, and proves two
// invariances on top of the golden:
//
//   - Config.Workers does not leak into the wire bytes: the Workers=8
//     transcript is byte-identical to the Workers=1 golden.
//   - The communication *pattern* is independent of the secret inputs:
//     with the same seeds but different client inputs, every flight has
//     the same size in the same order. (The bytes themselves legally
//     differ — OT column matrices and shares are functions of the
//     secrets under fixed randomness.)
func TestGoldenSession(t *testing.T) {
	c := Generate(3) // fixed case: ring 33, unsigned 4-bit, batch 3 (multi-batch FC)
	srv1, cli1 := sessionTranscripts(t, c, 1, c.Inputs, nil)
	parties := []PartyTranscript{
		{Party: "server", T: srv1},
		{Party: "client", T: cli1},
	}
	if err := CompareGolden("session-seed3", "full session workers=1 "+c.Desc(), parties, *update); err != nil {
		t.Fatal(err)
	}

	srv8, cli8 := sessionTranscripts(t, c, 8, c.Inputs, nil)
	if d := srv1.Diff(srv8); d != "" {
		t.Errorf("server transcript differs between Workers=1 and Workers=8: %s", d)
	}
	if d := cli1.Diff(cli8); d != "" {
		t.Errorf("client transcript differs between Workers=1 and Workers=8: %s", d)
	}

	other := make([][]float64, len(c.Inputs))
	for k, x := range c.Inputs {
		o := make([]float64, len(x))
		for i := range o {
			o[i] = -x[i] + 0.25
		}
		other[k] = o
	}
	srvO, cliO := sessionTranscripts(t, c, 1, other, nil)
	if !EqualShapes(srv1, srvO) {
		t.Error("server flight shapes depend on the client's secret inputs")
	}
	if !EqualShapes(cli1, cliO) {
		t.Error("client flight shapes depend on the client's secret inputs")
	}
}

// onlySpan returns the unique span named name, failing the test if the
// dump holds zero or several of them.
func onlySpan(t *testing.T, who string, spans []abnn2.TraceSpan, name string) abnn2.TraceSpan {
	t.Helper()
	var found []abnn2.TraceSpan
	for _, s := range spans {
		if s.Name == name {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%s: %d %q spans, want exactly 1", who, len(found), name)
	}
	return found[0]
}

// sumSpanBytes totals the wire traffic of every span named name.
func sumSpanBytes(spans []abnn2.TraceSpan, name string) int64 {
	var total int64
	for _, s := range spans {
		if s.Name == name {
			total += s.Bytes()
		}
	}
	return total
}

// TestGoldenSessionBanked pins the wire transcript of the fixed seed-3
// case served from peer-paired stored correlations (replenished by a
// seeded offline session, with pinned store peer ids), and proves the
// offline/online claim behind the bank through per-party trace spans:
// the banked session's "online" phase moves exactly the same bytes,
// messages and flights as the inline session's, while the inline
// "offline" wire traffic vanishes — drawing and claiming a stored
// correlation costs zero wire bytes (the banked announcement is the
// whole provisioning flight).
func TestGoldenSessionBanked(t *testing.T) {
	c := Generate(3) // fixed case: ring 33, unsigned 4-bit, batch 3 (multi-batch FC)

	inlineSrvTr, inlineCliTr := abnn2.NewTraceCollector(), abnn2.NewTraceCollector()
	inlineSrv, inlineCli := sessionTranscripts(t, c, 1, c.Inputs, func(server bool, cfg *abnn2.Config) {
		if server {
			cfg.Trace = inlineSrvTr
		} else {
			cfg.Trace = inlineCliTr
		}
	})

	banked, err := peerBanked(t, c, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bankSrvTr, bankCliTr := abnn2.NewTraceCollector(), abnn2.NewTraceCollector()
	srv, cli := sessionTranscripts(t, c, 1, c.Inputs, func(server bool, cfg *abnn2.Config) {
		banked(server, cfg)
		if server {
			cfg.Trace = bankSrvTr
		} else {
			cfg.Trace = bankCliTr
		}
	})
	parties := []PartyTranscript{
		{Party: "server", T: srv},
		{Party: "client", T: cli},
	}
	if err := CompareGolden("session-banked-seed3", "banked session workers=1 "+c.Desc(), parties, *update); err != nil {
		t.Fatal(err)
	}

	// The bank must shrink the session: all offline flights are gone.
	if srv.Bytes() >= inlineSrv.Bytes() || cli.Bytes() >= inlineCli.Bytes() {
		t.Errorf("banked session not smaller: server %d vs %d bytes, client %d vs %d",
			srv.Bytes(), inlineSrv.Bytes(), cli.Bytes(), inlineCli.Bytes())
	}

	for _, p := range []struct {
		name           string
		inline, banked []abnn2.TraceSpan
	}{
		{"server", inlineSrvTr.Spans(), bankSrvTr.Spans()},
		{"client", inlineCliTr.Spans(), bankCliTr.Spans()},
	} {
		on := onlySpan(t, p.name+" inline", p.inline, "online")
		onB := onlySpan(t, p.name+" banked", p.banked, "online")
		if on.BytesSent != onB.BytesSent || on.BytesRecvd != onB.BytesRecvd ||
			on.Messages != onB.Messages || on.Flights != onB.Flights {
			t.Errorf("%s online phase changed under the bank: "+
				"inline sent=%d recvd=%d msgs=%d flights=%d, banked sent=%d recvd=%d msgs=%d flights=%d",
				p.name, on.BytesSent, on.BytesRecvd, on.Messages, on.Flights,
				onB.BytesSent, onB.BytesRecvd, onB.Messages, onB.Flights)
		}
		if got := sumSpanBytes(p.inline, "offline"); got == 0 {
			t.Errorf("%s: inline session recorded no offline wire traffic", p.name)
		}
		if got := sumSpanBytes(p.banked, "offline"); got != 0 {
			t.Errorf("%s: banked session ran an inline offline phase (%d wire bytes)", p.name, got)
		}
		bankSpan := onlySpan(t, p.name+" banked", p.banked, "bank-peer")
		if bankSpan.Bytes() != 0 {
			t.Errorf("%s: drawing/claiming a correlation moved %d wire bytes, want 0",
				p.name, bankSpan.Bytes())
		}
	}
}
