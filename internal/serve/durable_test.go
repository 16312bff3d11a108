package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"abnn2"
	"abnn2/internal/metrics"
)

// Durable serving suite: the runtime's offline-session handshake branch,
// admission against the stored halves, recovery-gated readiness, and the
// drain-time claim journal flush.

// durableRuntime builds a runtime whose bank persists to a fresh store
// under dir, recovery already completed (synchronously, for test
// determinism the recovery gate is exercised separately).
func durableRuntime(t *testing.T, dir string, capacity int) (*Runtime, *abnn2.BankStore) {
	t.Helper()
	return durableRuntimeOpts(t, dir, capacity, Options{})
}

// durableRuntimeOpts is durableRuntime over the given options template.
func durableRuntimeOpts(t *testing.T, dir string, capacity int, opts Options) (*Runtime, *abnn2.BankStore) {
	t.Helper()
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	opts.Bank = abnn2.NewBank(abnn2.BankOptions{Capacity: capacity, Store: st})
	rt := testRuntime(t, opts)
	t.Cleanup(func() {
		opts.Bank.Close()
		st.Close()
	})
	return rt, st
}

// clientParty is the remote client's own store+bank for offline tests.
func clientParty(t *testing.T) (*abnn2.BankStore, *abnn2.Bank) {
	t.Helper()
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	b := abnn2.NewBank(abnn2.BankOptions{Capacity: 4, Store: st})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})
	return st, b
}

// replenishVia runs one offline-replenishment session for model through
// the runtime's offline handshake, storing n batch-2 correlations in both
// parties' stores, and returns the handshake info.
func replenishVia(t *testing.T, rt *Runtime, model string, cliStore *abnn2.BankStore, cliBank *abnn2.Bank, n int) HandshakeInfo {
	t.Helper()
	sconn, cconn := abnn2.Pipe()
	defer cconn.Close()
	go func() { _ = rt.HandleConn(context.Background(), sconn, "inproc") }()
	info, err := ClientHandshakeOffline(cconn, model, cliStore.PeerID().String())
	if err != nil {
		t.Fatalf("offline handshake: %v", err)
	}
	serverPeer, err := abnn2.ParseBankPeerID(info.Peer)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := abnn2.Config{RingBits: 32, RoundTimeout: testRoundTimeout,
		Bank: cliBank, BankModel: info.BankID}
	if got, err := abnn2.ReplenishSession(context.Background(), cconn, info.Arch, ccfg,
		serverPeer, 2, n); err != nil || got != n {
		t.Fatalf("replenish: got=%d err=%v", got, err)
	}
	return info
}

// connectInfo is Runtime.Connect returning the full handshake info.
func connectInfo(ctx context.Context, rt *Runtime, model string) (abnn2.Conn, HandshakeInfo, error) {
	sc, cc := abnn2.Pipe()
	go func() { _ = rt.HandleConn(ctx, sc, "inproc") }()
	info, err := ClientHandshakeInfo(cc, model)
	if err != nil {
		cc.Close()
	}
	return cc, info, err
}

// TestOfflineHandshakeAndSession: an offline hello is admitted, carries
// the server's bank identity and peer id, and the replenished pool then
// backs a peer-banked inference session through the normal handshake.
func TestOfflineHandshakeAndSession(t *testing.T) {
	rt, srvStore := durableRuntime(t, t.TempDir(), 4)
	cliStore, cliBank := clientParty(t)
	info := replenishVia(t, rt, "", cliStore, cliBank, 2)
	if info.BankID == "" || info.Peer != srvStore.PeerID().String() {
		t.Fatalf("offline handshake info incomplete: bank=%q peer=%q", info.BankID, info.Peer)
	}

	// The stored pairs back real sessions through the normal handshake.
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		conn, info2, err := connectInfo(ctx, rt, "")
		if err != nil {
			cancel()
			t.Fatalf("session %d handshake: %v", i, err)
		}
		if info2.BankID != info.BankID || info2.Peer != info.Peer {
			t.Fatalf("normal handshake bank info differs from offline handshake")
		}
		cfg := abnn2.Config{RingBits: 32, RoundTimeout: testRoundTimeout,
			Bank: cliBank, OfflineMode: abnn2.OfflineBanked,
			BankModel: info2.BankID, BankPeer: info2.Peer}
		client, err := abnn2.Dial(conn, info2.Arch, cfg)
		if err != nil {
			cancel()
			t.Fatalf("session %d dial: %v", i, err)
		}
		if _, err := client.Classify(testInputs(2)); err != nil {
			t.Fatalf("session %d classify (peer-banked): %v", i, err)
		}
		client.Close()
		cancel()
	}
}

// TestOfflineHandshakeRejections: offline hellos are refused by a server
// without a bank (permanent) and with a malformed peer id (permanent).
func TestOfflineHandshakeRejections(t *testing.T) {
	t.Run("no-store", func(t *testing.T) {
		rt := testRuntime(t, Options{})
		sconn, cconn := abnn2.Pipe()
		defer cconn.Close()
		go func() { _ = rt.HandleConn(context.Background(), sconn, "inproc") }()
		_, err := ClientHandshakeOffline(cconn, "", abnn2.BankPeerID{1}.String())
		var rej *RejectError
		if !errors.As(err, &rej) || rej.Temporary() {
			t.Fatalf("offline hello without a store: %v, want permanent rejection", err)
		}
	})
	t.Run("bad-peer", func(t *testing.T) {
		rt, _ := durableRuntime(t, t.TempDir(), 2)
		sconn, cconn := abnn2.Pipe()
		defer cconn.Close()
		go func() { _ = rt.HandleConn(context.Background(), sconn, "inproc") }()
		_, err := ClientHandshakeOffline(cconn, "", "not-a-peer-id")
		var rej *RejectError
		if !errors.As(err, &rej) || rej.Temporary() {
			t.Fatalf("offline hello with a bad peer: %v, want permanent rejection", err)
		}
	})
}

// TestRecoveryGatesReadiness: /readyz answers 503 while the store's
// recovery scan runs, then flips ready; offline hellos during recovery
// are shed retryably.
func TestRecoveryGatesReadiness(t *testing.T) {
	dir := t.TempDir()
	// Seed the store with some persisted state so recovery has work.
	{
		st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recover(); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b := abnn2.NewBank(abnn2.BankOptions{Capacity: 2, Store: st})
	rt := testRuntime(t, Options{Bank: b})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})

	// Gate manually (StartRecovery's goroutine races the assertion), then
	// verify the reason strings on both sides of the flip.
	rt.recovered.Store(false)
	if ready, reason := rt.ReadyState(); ready || reason != "bank store recovery in progress" {
		t.Fatalf("ReadyState during recovery = %v %q", ready, reason)
	}
	sconn, cconn := abnn2.Pipe()
	go func() { _ = rt.HandleConn(context.Background(), sconn, "inproc") }()
	_, herr := ClientHandshakeOffline(cconn, "", abnn2.BankPeerID{1}.String())
	cconn.Close()
	var rej *RejectError
	if !errors.As(herr, &rej) || !rej.Temporary() {
		t.Fatalf("offline hello during recovery: %v, want retryable rejection", herr)
	}

	rt.StartRecovery()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ready, _ := rt.ReadyState(); ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("runtime never became ready after StartRecovery")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !st.Recovered() {
		t.Fatal("StartRecovery completed without recovering the store")
	}
}

// TestDrainFlushesJournal: Drain succeeds with no live connections and
// leaves the store's claim journal synced (Sync on a drained store is a
// no-op, proving the flush already happened).
func TestDrainFlushesJournal(t *testing.T) {
	rt, st := durableRuntime(t, t.TempDir(), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("sync after drain: %v", err)
	}
	if ready, reason := rt.ReadyState(); ready || reason != "draining" {
		t.Fatalf("ReadyState after drain = %v %q", ready, reason)
	}
}

// TestAdmissionCountsStoredHalves: admission reads the server store's
// unclaimed halves for the requested model. An OfflineBanked runtime
// sheds bank-dry while its store holds nothing for a model, admits the
// model's peer-banked client once it is replenished, and an OfflineAuto
// runtime counts that session as banked, not degraded.
func TestAdmissionCountsStoredHalves(t *testing.T) {
	for _, mode := range []abnn2.OfflineMode{abnn2.OfflineBanked, abnn2.OfflineAuto} {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewMetrics(metrics.NewRegistry())
			rt, _ := durableRuntimeOpts(t, t.TempDir(), 4, Options{
				Registry: testRegistry(t, "m0", "m1"), Metrics: m,
				Session: abnn2.Config{OfflineMode: mode},
			})
			cliStore, cliBank := clientParty(t)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if mode == abnn2.OfflineBanked {
				_, _, err := rt.Connect(ctx, "m0")
				var rej *RejectError
				if !errors.As(err, &rej) || rej.Rejection.Code != RejectBankDry {
					t.Fatalf("connect to an empty store: %v, want a bank-dry rejection", err)
				}
			}
			replenishVia(t, rt, "m0", cliStore, cliBank, 1)

			conn, info, err := connectInfo(ctx, rt, "m0")
			if err != nil {
				t.Fatalf("connect after replenishment: %v", err)
			}
			client, err := abnn2.Dial(conn, info.Arch, abnn2.Config{RingBits: 32,
				RoundTimeout: testRoundTimeout, Bank: cliBank, OfflineMode: abnn2.OfflineBanked,
				BankModel: info.BankID, BankPeer: info.Peer})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			if _, err := client.Classify(testInputs(2)); err != nil {
				t.Fatalf("peer-banked classify: %v", err)
			}
			client.Close()
			if d := m.Degraded.Value(); d != 0 {
				t.Errorf("peer-banked session counted as degraded %d times", d)
			}
			if mode == abnn2.OfflineBanked {
				_, _, err := rt.Connect(ctx, "m1")
				var rej *RejectError
				if !errors.As(err, &rej) || rej.Rejection.Code != RejectBankDry {
					t.Fatalf("connect for a model with no stored halves: %v, want bank-dry", err)
				}
			}
		})
	}
}
