package abnn2

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"abnn2/internal/core"
)

// Bank chaos suite: banked provisioning under hostile conditions — dry
// pools, forged correlation IDs, shutdown racing replenishment and live
// sessions. The invariant is the same error-or-fallback discipline the
// transport chaos tests enforce: a session either completes correctly
// or returns an error promptly; nothing hangs, nothing leaks.

// chaosBanks returns a server and a client party whose peer pools hold
// stocked batch-2 correlations, each pool capped at capacity.
func chaosBanks(t *testing.T, qm *QuantizedModel, capacity, stocked int) (srv, cli *durableParty) {
	t.Helper()
	srv = newDurableParty(t, t.TempDir(), capacity)
	cli = newDurableParty(t, t.TempDir(), capacity)
	if stocked > 0 {
		if got := replenishPair(t, qm, srv, cli, 2, stocked); got != stocked {
			t.Fatalf("replenished %d correlations, want %d", got, stocked)
		}
	}
	return srv, cli
}

// modeConfigs is peerConfigs under the given offline mode on both sides,
// with a per-session client seed.
func modeConfigs(t *testing.T, qm *QuantizedModel, srv, cli *durableParty, mode OfflineMode, seed uint64) (Config, Config) {
	t.Helper()
	scfg, ccfg := peerConfigs(t, qm, srv, cli)
	scfg.OfflineMode, ccfg.OfflineMode, ccfg.Seed = mode, mode, seed
	return scfg, ccfg
}

// TestChaosBankDryPool: an empty pool under OfflineBanked must fail the
// batch immediately — and under OfflineAuto must fall back to the
// inline offline phase and still classify correctly.
func TestChaosBankDryPool(t *testing.T) {
	qm := chaosModel(t)
	time.Sleep(20 * time.Millisecond)
	base := runtime.NumGoroutine()

	t.Run("banked-errors", func(t *testing.T) {
		srv, cli := chaosBanks(t, qm, 2, 0)
		scfg, ccfg := modeConfigs(t, qm, srv, cli, OfflineBanked, 77)
		sconn, cconn := Pipe()
		srvErr, cliErr, _ := runParties(t, qm, sconn, cconn, scfg, ccfg)
		if cliErr == nil {
			t.Fatal("dry pool under OfflineBanked completed a batch")
		}
		if !strings.Contains(cliErr.Error(), "dry") {
			t.Errorf("client error %q does not mention the dry pool", cliErr)
		}
		// The server never saw a batch; a clean hang-up is not an error.
		if srvErr != nil {
			t.Logf("server saw: %v", srvErr)
		}
	})

	t.Run("auto-falls-back", func(t *testing.T) {
		srv, cli := chaosBanks(t, qm, 2, 0)
		scfg, ccfg := modeConfigs(t, qm, srv, cli, OfflineAuto, 78)
		sconn, cconn := Pipe()
		srvErr, cliErr, classes := runParties(t, qm, sconn, cconn, scfg, ccfg)
		if srvErr != nil || cliErr != nil {
			t.Fatalf("auto fallback failed: server=%v client=%v", srvErr, cliErr)
		}
		for k, x := range chaosInputs(2) {
			if classes[k] != qm.Predict(x) {
				t.Errorf("fallback run misclassified input %d", k)
			}
		}
	})

	settleGoroutines(t, base, "bank dry pool")
}

// forgeIDConn corrupts the first banked announcement it carries: the
// correlation ID is flipped, simulating a client claiming a correlation
// it never drew.
type forgeIDConn struct {
	Conn
	mu    sync.Mutex
	fired bool
}

func (c *forgeIDConn) Send(msg []byte) error {
	c.mu.Lock()
	if ann, err := core.UnmarshalAnnouncement(msg); !c.fired && err == nil && ann.Banked {
		c.fired = true
		ann.CorrID ^= 0xFF
		msg = ann.Marshal()
	}
	c.mu.Unlock()
	return c.Conn.Send(msg)
}

func (c *forgeIDConn) Fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// TestChaosBankForgedCorrelationID: a tampered announcement must be
// rejected by the server as an unknown correlation — an immediate
// protocol error on both sides, never a hang — and the honestly stored
// server half stays claimable by nobody but its owner.
func TestChaosBankForgedCorrelationID(t *testing.T) {
	qm := chaosModel(t)
	time.Sleep(20 * time.Millisecond)
	base := runtime.NumGoroutine()

	srv, cli := chaosBanks(t, qm, 1, 1)
	scfg, ccfg := modeConfigs(t, qm, srv, cli, OfflineBanked, 79)
	sconn, cconn := Pipe()
	forged := &forgeIDConn{Conn: cconn}
	srvErr, cliErr, _ := runParties(t, qm, sconn, forged, scfg, ccfg)
	if !forged.Fired() {
		t.Fatal("no banked announcement crossed the wire")
	}
	if srvErr == nil {
		t.Fatal("server accepted a forged correlation ID")
	}
	if !strings.Contains(srvErr.Error(), "correlation") {
		t.Errorf("server error %q does not mention the correlation claim", srvErr)
	}
	if cliErr == nil {
		t.Error("client completed a batch the server rejected")
	}
	key := bankSessionKeyForTest(t, qm, 2)
	if d := srv.bank.PeerDepth(cli.store.PeerID(), key); d != 1 {
		t.Errorf("server pool depth %d after the forged claim, want the honest half still stored", d)
	}
	settleGoroutines(t, base, "forged correlation ID")
}

// TestChaosBankCloseMidReplenish: closing the client's bank while a
// replenishment session is generating must stop the session promptly
// with an error — the next half cannot be stored — and leave no
// goroutines behind on either side.
func TestChaosBankCloseMidReplenish(t *testing.T) {
	qm := chaosModel(t)
	time.Sleep(20 * time.Millisecond)
	base := runtime.NumGoroutine()

	const n = 64
	srv, cli := chaosBanks(t, qm, n, 0)
	id, err := BankModelID(qm)
	if err != nil {
		t.Fatal(err)
	}
	sconn, cconn := Pipe()
	srvErr := make(chan error, 1)
	go func() {
		err := ServeOfflineSession(context.Background(), sconn, qm,
			Config{RingBits: 32, RoundTimeout: chaosRoundTimeout, Bank: srv.bank}, cli.store.PeerID())
		sconn.Close()
		srvErr <- err
	}()
	type result struct {
		got int
		err error
	}
	rep := make(chan result, 1)
	go func() {
		got, err := ReplenishSession(context.Background(), cconn, qm.Arch(),
			Config{RingBits: 32, Seed: 80, RoundTimeout: chaosRoundTimeout, Bank: cli.bank, BankModel: id},
			srv.store.PeerID(), 2, n)
		cconn.Close()
		rep <- result{got, err}
	}()
	key := bankSessionKeyForTest(t, qm, 2)
	deadline := time.Now().Add(chaosWatchdog)
	for cli.bank.PeerDepth(srv.store.PeerID(), key) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no correlation landed before the watchdog")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cli.bank.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case r := <-rep:
		if r.err == nil || r.got >= n {
			t.Fatalf("replenishment ran on after Close: got %d of %d, err %v", r.got, n, r.err)
		}
	case <-time.After(chaosWatchdog):
		buf := make([]byte, 1<<20)
		k := runtime.Stack(buf, true)
		t.Fatalf("replenishment hung after Close:\n%s", buf[:k])
	}
	select {
	case <-srvErr: // any outcome, as long as it returns
	case <-time.After(chaosWatchdog):
		t.Fatal("offline server hung after the client's bank closed")
	}
	settleGoroutines(t, base, "close mid-replenish")
}

// TestChaosBankConcurrentDrain: several OfflineAuto sessions race the
// client bank's Close and a flush of the server's claim journal.
// Sessions that draw before the close use stored correlations; sessions
// that lose the race fall back inline — every one must finish correctly,
// and the shutdown must not deadlock against live draws and claims.
func TestChaosBankConcurrentDrain(t *testing.T) {
	qm := chaosModel(t)
	time.Sleep(20 * time.Millisecond)
	base := runtime.NumGoroutine()

	srv, cli := chaosBanks(t, qm, 2, 2)
	const sessions = 3
	var wg sync.WaitGroup
	errs := make([]error, 2*sessions)
	misses := make([][]int, sessions)
	for i := 0; i < sessions; i++ {
		i := i
		scfg, ccfg := modeConfigs(t, qm, srv, cli, OfflineAuto, 90+uint64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sconn, cconn := Pipe()
			srvErr, cliErr, classes := runParties(t, qm, sconn, cconn, scfg, ccfg)
			errs[2*i], errs[2*i+1] = srvErr, cliErr
			if cliErr == nil {
				for k, x := range chaosInputs(2) {
					if classes[k] != qm.Predict(x) {
						misses[i] = append(misses[i], k)
					}
				}
			}
		}()
	}
	// Shut the client's bank down while the sessions are mid-provision.
	time.Sleep(5 * time.Millisecond)
	syncErr := srv.store.Sync()
	closeErr := cli.bank.Close()
	wg.Wait()
	if syncErr != nil {
		t.Errorf("journal flush: %v", syncErr)
	}
	if closeErr != nil {
		t.Errorf("close: %v", closeErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d party %d: %v", i/2, i%2, err)
		}
	}
	for i, m := range misses {
		if len(m) > 0 {
			t.Errorf("session %d misclassified inputs %v", i, m)
		}
	}
	settleGoroutines(t, base, "concurrent drain")
}

// TestChaosBankDryConcurrent: N parallel strict-banked sessions race a
// one-deep pool. Each session must either complete correctly (it won the
// draw) or fail with the typed ErrBankDry — never hang, never leak. The
// same race under OfflineAuto must complete every session via inline
// fallback.
func TestChaosBankDryConcurrent(t *testing.T) {
	qm := chaosModel(t)
	time.Sleep(20 * time.Millisecond)
	base := runtime.NumGoroutine()

	const sessions = 4

	t.Run("banked-typed-error-or-success", func(t *testing.T) {
		srv, cli := chaosBanks(t, qm, 1, 1)
		var wg sync.WaitGroup
		cliErrs := make([]error, sessions)
		classes := make([][]int, sessions)
		for i := 0; i < sessions; i++ {
			i := i
			scfg, ccfg := modeConfigs(t, qm, srv, cli, OfflineBanked, 300+uint64(i))
			wg.Add(1)
			go func() {
				defer wg.Done()
				sconn, cconn := Pipe()
				_, cliErrs[i], classes[i] = runParties(t, qm, sconn, cconn, scfg, ccfg)
			}()
		}
		wg.Wait()
		completed := 0
		for i, err := range cliErrs {
			switch {
			case err == nil:
				completed++
				for k, x := range chaosInputs(2) {
					if classes[i][k] != qm.Predict(x) {
						t.Errorf("session %d misclassified input %d", i, k)
					}
				}
			case errors.Is(err, ErrBankDry):
				// The typed retryable outcome — what the serve layer turns
				// into a bank-dry rejection.
			default:
				t.Errorf("session %d failed without the typed dry error: %v", i, err)
			}
		}
		if completed != 1 {
			t.Errorf("%d sessions completed on one stored correlation, want exactly 1", completed)
		}
	})

	t.Run("auto-all-succeed", func(t *testing.T) {
		srv, cli := chaosBanks(t, qm, 1, 1)
		var wg sync.WaitGroup
		errs := make([]error, 2*sessions)
		for i := 0; i < sessions; i++ {
			i := i
			scfg, ccfg := modeConfigs(t, qm, srv, cli, OfflineAuto, 400+uint64(i))
			wg.Add(1)
			go func() {
				defer wg.Done()
				sconn, cconn := Pipe()
				var classes []int
				errs[2*i], errs[2*i+1], classes = runParties(t, qm, sconn, cconn, scfg, ccfg)
				if errs[2*i+1] == nil {
					for k, x := range chaosInputs(2) {
						if classes[k] != qm.Predict(x) {
							t.Errorf("session %d misclassified input %d", i, k)
						}
					}
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("session %d party %d: %v", i/2, i%2, err)
			}
		}
	})

	settleGoroutines(t, base, "bank dry concurrent")
}
