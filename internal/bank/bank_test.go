package bank

import (
	"bytes"
	"fmt"
	"testing"

	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// testModel returns a small quantized MLP (GC junction + linear head),
// enough to exercise every correlation component (R0, V, Z1, U).
func testModel(t *testing.T) *nn.QuantizedModel {
	t.Helper()
	m := nn.NewModel(6, 5, 3)
	m.InitXavier(prg.New(prg.SeedFromInt(7)))
	s, err := quant.Parse("4(2,2)")
	if err != nil {
		t.Fatalf("parse scheme: %v", err)
	}
	return nn.Quantize(m, s, 6)
}

func sessionKey(t *testing.T, qm *nn.QuantizedModel, batch int) Key {
	t.Helper()
	id, err := ModelID(qm)
	if err != nil {
		t.Fatalf("model id: %v", err)
	}
	return Key{Model: id, Scheme: qm.Layers[0].Scheme.Name(), RingBits: 32, Batch: batch, Backend: SessionBackend}
}

// genPair runs the two-party offline protocol for one correlation of the
// given batch size over an in-memory pipe, both roles seeded from seed,
// and returns the two halves — what a replenishment round stores on
// each side.
func genPair(t *testing.T, qm *nn.QuantizedModel, batch int, seed uint64) (*core.ServerCorr, *core.ClientCorr) {
	t.Helper()
	p := core.Params{Ring: ring.New(32), Scheme: qm.Layers[0].Scheme, Workers: 1}
	rng := prg.New(prg.SeedFromInt(seed))
	srng, crng, shares := rng.Child("server"), rng.Child("client"), rng.Child("shares")
	sconn, cconn := transport.Pipe()
	defer sconn.Close()
	type result struct {
		corr *core.ServerCorr
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		strip, err := core.NewServerTripletsSeeded(sconn, p, 0xBD, srng)
		if err != nil {
			ch <- result{nil, err}
			return
		}
		corr, err := strip.OfflineCorr(qm, batch)
		ch <- result{corr, err}
	}()
	ctrip, err := core.NewClientTriplets(cconn, p, 0xBD, crng)
	var ccorr *core.ClientCorr
	if err == nil {
		ccorr, err = ctrip.OfflineCorr(core.ArchOf(qm), shares, batch)
	}
	if err != nil {
		sconn.Close()
	}
	s := <-ch
	if err != nil || s.err != nil {
		t.Fatalf("generate: client %v, server %v", err, s.err)
	}
	return s.corr, ccorr
}

// pairedBanks returns a client and a server bank over fresh recovered
// stores, plus their peer ids.
func pairedBanks(t *testing.T, opts Options) (cli, srv *Bank, cliPeer, srvPeer PeerID) {
	t.Helper()
	cst, _ := openRecovered(t, t.TempDir(), StoreOptions{})
	sst, _ := openRecovered(t, t.TempDir(), StoreOptions{})
	t.Cleanup(func() {
		cst.Close()
		sst.Close()
	})
	copts, sopts := opts, opts
	copts.Store, sopts.Store = cst, sst
	return New(copts), New(sopts), cst.PeerID(), sst.PeerID()
}

// putPair stores a generated pair as peer-paired correlation id.
func putPair(t *testing.T, cli, srv *Bank, cliPeer, srvPeer PeerID, key Key, id uint64,
	s *core.ServerCorr, c *core.ClientCorr) {
	t.Helper()
	if err := cli.PutPeerClient(srvPeer, key, id, c); err != nil {
		t.Fatalf("put client half: %v", err)
	}
	if err := srv.PutPeerServer(cliPeer, key, id, s); err != nil {
		t.Fatalf("put server half: %v", err)
	}
}

func TestBankAcquireClaimRoundTrip(t *testing.T) {
	qm := testModel(t)
	key := sessionKey(t, qm, 2)
	cli, srv, cliPeer, srvPeer := pairedBanks(t, Options{Capacity: 2})
	s, c := genPair(t, qm, 2, 11)
	putPair(t, cli, srv, cliPeer, srvPeer, key, 42, s, c)
	if d := cli.PeerDepth(srvPeer, key); d != 1 {
		t.Fatalf("client depth = %d, want 1", d)
	}
	if d := srv.ModelDepth(key.Model); d != 1 {
		t.Fatalf("server model depth = %d, want 1", d)
	}
	if d := srv.ModelDepth("other-model"); d != 0 {
		t.Fatalf("server depth for an unknown model = %d, want 0", d)
	}
	id, ccorr, ok := cli.AcquirePeer(srvPeer, key)
	if !ok || id != 42 || ccorr.Batch != 2 {
		t.Fatalf("acquire = (%d, %v), want id 42 batch 2", id, ok)
	}
	// A claim under the wrong key must miss and leave the half stored.
	wrong := key
	wrong.Batch = 3
	if _, ok := srv.ClaimPeer(cliPeer, id, wrong); ok {
		t.Fatalf("claim with mismatched key succeeded")
	}
	scorr, ok := srv.ClaimPeer(cliPeer, id, key)
	if !ok || scorr.Batch != 2 {
		t.Fatalf("claim missed")
	}
	// Single-use: the ID is spent on both sides.
	if _, ok := srv.ClaimPeer(cliPeer, id, key); ok {
		t.Fatalf("second claim of the same ID succeeded")
	}
	if _, _, ok := cli.AcquirePeer(srvPeer, key); ok {
		t.Fatalf("second draw from a one-deep pool succeeded")
	}
	if d := srv.ModelDepth(key.Model); d != 0 {
		t.Fatalf("server model depth after claim = %d, want 0", d)
	}
	// The pair really is a correlation: U + V = W * R0 for layer 0.
	rg := ring.New(32)
	want := rg.MulMat(qm.Layers[0].WMat(rg), ccorr.R0)
	got := rg.AddMat(scorr.U[0].Clone(), ccorr.V[0])
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("U+V != W*R0 at %d: %d vs %d", i, got.Data[i], want.Data[i])
		}
	}
}

func TestBankDistinctPairsPerDraw(t *testing.T) {
	qm := testModel(t)
	key := sessionKey(t, qm, 1)
	cli, srv, cliPeer, srvPeer := pairedBanks(t, Options{Capacity: 2})
	for i, seed := range []uint64{3, 4} {
		s, c := genPair(t, qm, 1, seed)
		putPair(t, cli, srv, cliPeer, srvPeer, key, uint64(100+i), s, c)
	}
	id1, h1, ok1 := cli.AcquirePeer(srvPeer, key)
	id2, h2, ok2 := cli.AcquirePeer(srvPeer, key)
	if !ok1 || !ok2 {
		t.Fatalf("acquires missed: %v %v", ok1, ok2)
	}
	if id1 != 100 || id2 != 101 {
		t.Fatalf("draws returned ids %d, %d; want 100, 101 (FIFO)", id1, id2)
	}
	if bytes.Equal(EncodeClientCorr(h1), EncodeClientCorr(h2)) {
		t.Fatalf("two draws returned identical client halves (correlation reuse)")
	}
}

// TestBankDeterministicSeeding: a seeded generation lands byte-identical
// records in independent stores, so seeded peer-paired sessions replay
// exactly.
func TestBankDeterministicSeeding(t *testing.T) {
	qm := testModel(t)
	key := sessionKey(t, qm, 2)
	draw := func() ([]byte, []byte) {
		cli, srv, cliPeer, srvPeer := pairedBanks(t, Options{})
		s, c := genPair(t, qm, 2, 99)
		putPair(t, cli, srv, cliPeer, srvPeer, key, 7, s, c)
		id, cc, ok := cli.AcquirePeer(srvPeer, key)
		if !ok {
			t.Fatalf("acquire missed")
		}
		sc, ok := srv.ClaimPeer(cliPeer, id, key)
		if !ok {
			t.Fatalf("claim missed")
		}
		return EncodeClientCorr(cc), EncodeServerCorr(sc)
	}
	c1, s1 := draw()
	c2, s2 := draw()
	if !bytes.Equal(c1, c2) || !bytes.Equal(s1, s2) {
		t.Fatalf("seeded generations disagree")
	}
}

type eventLog struct{ kinds []string }

func (l *eventLog) BankEvent(ev Event) { l.kinds = append(l.kinds, ev.Kind) }

func TestBankMissPaths(t *testing.T) {
	qm := testModel(t)
	key := sessionKey(t, qm, 1)
	log := &eventLog{}
	cli, srv, cliPeer, srvPeer := pairedBanks(t, Options{Observer: log})
	s, c := genPair(t, qm, 1, 5)
	putPair(t, cli, srv, cliPeer, srvPeer, key, 9, s, c)

	unknown := key
	unknown.Model = "feedfacefeedface"
	if _, _, ok := cli.AcquirePeer(srvPeer, unknown); ok {
		t.Fatalf("acquire for an unknown model succeeded")
	}
	var other PeerID
	other[3] = 1
	if _, _, ok := cli.AcquirePeer(other, key); ok {
		t.Fatalf("acquire under another peer succeeded")
	}
	if _, ok := srv.ClaimPeer(cliPeer, 10, key); ok {
		t.Fatalf("claim of an unknown id succeeded")
	}
	if _, ok := srv.ClaimPeer(other, 9, key); ok {
		t.Fatalf("claim announced under another peer succeeded")
	}
	storeless := New(Options{})
	if _, _, ok := storeless.AcquirePeer(srvPeer, key); ok {
		t.Fatalf("acquire on a bank without a store succeeded")
	}
	if err := storeless.PutPeerClient(srvPeer, key, 1, c); err == nil {
		t.Fatalf("put on a bank without a store succeeded")
	}
	want := []string{"peer-miss", "peer-miss", "peer-claim-miss", "peer-claim-miss"}
	if fmt.Sprint(log.kinds) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", log.kinds, want)
	}
}

func TestBankDrainAndClose(t *testing.T) {
	qm := testModel(t)
	key := sessionKey(t, qm, 2)
	cli, srv, cliPeer, srvPeer := pairedBanks(t, Options{})
	s, c := genPair(t, qm, 2, 4)
	putPair(t, cli, srv, cliPeer, srvPeer, key, 1, s, c)
	if err := cli.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, _, ok := cli.AcquirePeer(srvPeer, key); ok {
		t.Fatalf("acquire succeeded after Close")
	}
	if err := cli.PutPeerClient(srvPeer, key, 2, c); err == nil {
		t.Fatalf("put succeeded after Close")
	}
	if d := cli.PeerDepth(srvPeer, key); d != 0 {
		t.Fatalf("closed bank reports depth %d", d)
	}
	// Close is idempotent, and it leaves the store — owned by the
	// caller — intact and flushable.
	if err := cli.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := cli.Store().Sync(); err != nil {
		t.Fatalf("store sync after bank Close: %v", err)
	}
	if d := cli.Store().Depth(Scope{Peer: srvPeer, Key: key}); d != 1 {
		t.Fatalf("store depth after bank Close = %d, want 1", d)
	}
}
