package testkit

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"abnn2"
	"abnn2/internal/nn"
	"abnn2/internal/plan"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// The peer-banked arm of the differential sweep: correlations come from
// an offline session — two separate durable stores filled over a pipe by
// the real two-party offline protocol — and the banked session then
// provisions from them (OfflineBanked, so a silent inline fallback fails
// the run). Bit-identity with the inline run and the plaintext reference
// certifies that the disk round trip and the peer-pairing protocol
// preserve the correlations exactly.

// durableSweepParty opens one party's store+bank under a test temp dir.
// The store's durable peer id is pinned to peer (normally minted at
// random on first open), so a seeded banked session — whose announcement
// carries the client's peer id — is byte-reproducible.
func durableSweepParty(t *testing.T, peer uint64) (*abnn2.BankStore, *abnn2.Bank) {
	t.Helper()
	dir := t.TempDir()
	id := fmt.Sprintf("%032x\n", peer)
	if err := os.WriteFile(filepath.Join(dir, "PEER"), []byte(id), 0o644); err != nil {
		t.Fatalf("pin peer id: %v", err)
	}
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: dir})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	b := abnn2.NewBank(abnn2.BankOptions{Capacity: 1, Store: st})
	t.Cleanup(func() {
		b.Close()
		st.Close()
	})
	return st, b
}

// peerBanked replenishes exactly one peer-paired correlation for the
// case — under p and its MiniONN key size when p is non-nil — over an
// in-memory pipe, with both parties seeded from the case seed, and
// returns the per-party configuration hook that provisions a session
// from it.
func peerBanked(t *testing.T, c *Case, p *plan.Plan, keyBits int) (func(server bool, cfg *abnn2.Config), error) {
	t.Helper()
	data, err := nn.MarshalQuantized(c.Model)
	if err != nil {
		return nil, fmt.Errorf("marshal model: %w", err)
	}
	qm, err := abnn2.LoadQuantizedModel(data)
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	id, err := abnn2.BankModelID(qm)
	if err != nil {
		return nil, fmt.Errorf("model id: %w", err)
	}
	srvStore, srvBank := durableSweepParty(t, 0xE000+c.Seed)
	cliStore, cliBank := durableSweepParty(t, 0xF000+c.Seed)

	sconn, cconn := transport.Pipe()
	scfg := abnn2.Config{RingBits: c.RingBits, Seed: 4*c.Seed + 3, Bank: srvBank,
		Plan: p, MiniONNKeyBits: keyBits}
	ccfg := abnn2.Config{RingBits: c.RingBits, Seed: 4*c.Seed + 4, Bank: cliBank, BankModel: id,
		Plan: p, MiniONNKeyBits: keyBits}
	srvErr := make(chan error, 1)
	go func() {
		err := abnn2.ServeOfflineSession(context.Background(), sconn, qm, scfg, cliStore.PeerID())
		sconn.Close()
		srvErr <- err
	}()
	got, err := abnn2.ReplenishSession(context.Background(), cconn, qm.Arch(), ccfg,
		srvStore.PeerID(), c.Batch, 1)
	cconn.Close()
	if serr := <-srvErr; err == nil && serr != nil {
		err = fmt.Errorf("offline serve: %w", serr)
	}
	if err != nil {
		return nil, fmt.Errorf("replenish: %w", err)
	}
	if got != 1 {
		return nil, fmt.Errorf("replenished %d correlations, want 1", got)
	}
	return func(server bool, cfg *abnn2.Config) {
		cfg.OfflineMode = abnn2.OfflineBanked
		if server {
			cfg.Bank = srvBank
		} else {
			cfg.Bank = cliBank
			cfg.BankModel = id
			cfg.BankPeer = srvStore.PeerID().String()
		}
	}, nil
}

// runPeerBanked replenishes one correlation and executes the case
// provisioned from it.
func runPeerBanked(t *testing.T, c *Case, optRelu bool) (*ring.Mat, error) {
	t.Helper()
	banked, err := peerBanked(t, c, nil, 0)
	if err != nil {
		return nil, err
	}
	return RunSecureCfg(c, 0, func(server bool, cfg *abnn2.Config) {
		cfg.OptimizedReLU = optRelu
		banked(server, cfg)
	})
}

// checkBitIdentical demands that a banked run's outputs equal the inline
// run's and the plaintext ring reference's, element for element —
// agreement between two secure runs alone could hide a shared bug.
func checkBitIdentical(c *Case, what string, banked, inline *ring.Mat) error {
	if banked.Rows != inline.Rows || banked.Cols != inline.Cols {
		return fmt.Errorf("%s: %s output %dx%d, inline %dx%d",
			c.Desc(), what, banked.Rows, banked.Cols, inline.Rows, inline.Cols)
	}
	for i := range inline.Data {
		if banked.Data[i] != inline.Data[i] {
			return fmt.Errorf("%s: output element %d: %s %d, inline %d",
				c.Desc(), i, what, banked.Data[i], inline.Data[i])
		}
	}
	rg := ring.New(c.RingBits)
	for k, x := range c.Inputs {
		want := c.Model.ForwardRing(rg, c.Model.EncodeInput(rg, x))
		for i, w := range want {
			if got := banked.At(i, k); got != w {
				return fmt.Errorf("%s: output %d of sample %d: %s %d, plaintext %d",
					c.Desc(), i, k, what, got, w)
			}
		}
	}
	return nil
}

// TestPeerBankedEquivalenceSweep: 40 consecutive seeds (one full pass
// over the eta x ring grid, see TestSweepCoverage) under both ReLU
// variants — peer-banked vs inline vs plaintext.
func TestPeerBankedEquivalenceSweep(t *testing.T) {
	for _, v := range []struct {
		name string
		opt  bool
	}{{"std-relu", false}, {"opt-relu", true}} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := uint64(0); seed < 40; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
					t.Parallel()
					c := Generate(seed)
					inline, err := RunSecureCfg(c, 0, func(server bool, cfg *abnn2.Config) {
						cfg.OptimizedReLU = v.opt
					})
					if err != nil {
						t.Fatalf("%s: inline run: %v", c.Desc(), err)
					}
					banked, err := runPeerBanked(t, c, v.opt)
					if err != nil {
						t.Fatalf("%s: peer-banked run: %v", c.Desc(), err)
					}
					if err := checkBitIdentical(c, "peer-banked", banked, inline); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}
