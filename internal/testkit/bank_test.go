package testkit

import (
	"context"
	"fmt"
	"testing"

	"abnn2"
	"abnn2/internal/core"
	"abnn2/internal/nn"
	"abnn2/internal/plan"
	"abnn2/internal/ring"
	"abnn2/internal/serve"
)

// The dual-execution equivalence suite for banked provisioning through
// the serving runtime: every case runs once with the offline phase
// inline and once provisioned the way a deployment provisions it — the
// client replenishes through the runtime's offline handshake, then a
// strict-banked session (OfflineBanked on both sides, so a silent inline
// fallback fails the run) is admitted against the server's stored
// halves. Outputs must match bit for bit, and both must match the
// plaintext ring reference: banked provisioning changes *when* the
// offline phase happens and nothing else.

// runBanked executes the case through a serving runtime whose store is
// filled by one offline-replenishment session. The model travels
// through its JSON wire form, as it does to a server.
func runBanked(t *testing.T, c *Case, optRelu bool) (*ring.Mat, error) {
	data, err := nn.MarshalQuantized(c.Model)
	if err != nil {
		return nil, fmt.Errorf("marshal model: %w", err)
	}
	qm, err := abnn2.LoadQuantizedModel(data)
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.Add("case", qm); err != nil {
		return nil, err
	}
	srvStore, srvBank := durableSweepParty(t, 0xA000+c.Seed)
	cliStore, cliBank := durableSweepParty(t, 0xB000+c.Seed)
	rt, err := serve.New(serve.Options{Registry: reg, Bank: srvBank, Session: abnn2.Config{
		RingBits: c.RingBits, Seed: 2*c.Seed + 1, OptimizedReLU: optRelu,
		OfflineMode: abnn2.OfflineBanked}})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	serveConn := func() (abnn2.Conn, <-chan error) {
		sconn, cconn := abnn2.Pipe()
		done := make(chan error, 1)
		go func() { done <- rt.HandleConn(ctx, sconn, "sweep") }()
		return cconn, done
	}

	conn, done := serveConn()
	info, err := serve.ClientHandshakeOffline(conn, "case", cliStore.PeerID().String())
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("offline handshake: %w", err)
	}
	got, err := abnn2.ReplenishSession(ctx, conn, info.Arch, abnn2.Config{RingBits: c.RingBits,
		Seed: 2*c.Seed + 3, Bank: cliBank, BankModel: info.BankID}, srvStore.PeerID(), c.Batch, 1)
	conn.Close()
	if serr := <-done; err == nil && serr != nil {
		err = fmt.Errorf("offline serve: %w", serr)
	}
	if err != nil || got != 1 {
		return nil, fmt.Errorf("replenish: stored %d, %v", got, err)
	}

	conn, done = serveConn()
	if info, err = serve.ClientHandshakeInfo(conn, "case"); err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	client, err := abnn2.Dial(conn, info.Arch, abnn2.Config{RingBits: c.RingBits,
		Seed: 2*c.Seed + 2, OptimizedReLU: optRelu, Bank: cliBank,
		OfflineMode: abnn2.OfflineBanked, BankModel: info.BankID, BankPeer: info.Peer})
	if err != nil {
		conn.Close()
		<-done
		return nil, fmt.Errorf("dial: %w", err)
	}
	out, err := client.Infer(c.Inputs)
	client.Close()
	if serr := <-done; err == nil && serr != nil {
		err = fmt.Errorf("server: %w", serr)
	}
	return out, err
}

// TestBankedEquivalenceSweep is the serving-runtime arm of the
// differential sweep: 40 consecutive seeds (one full pass over the eta
// x ring grid, see TestSweepCoverage) under both ReLU variants, banked
// through the runtime vs inline vs plaintext.
func TestBankedEquivalenceSweep(t *testing.T) {
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
					banked, err := runBanked(t, c, v.opt)
					if err != nil {
						t.Fatalf("%s: banked run: %v", c.Desc(), err)
					}
					if err := checkBitIdentical(c, "banked", banked, inline); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// findCase returns the first generated FC case satisfying ok.
func findCase(t *testing.T, ok func(*Case) bool) *Case {
	t.Helper()
	for seed := uint64(0); seed < 1000; seed++ {
		if c := Generate(seed); c.Model.Layers[0].Conv == nil && ok(c) {
			return c
		}
	}
	t.Fatal("no generated case fits")
	return nil
}

// TestBankMatmulBackendPools runs every offline matmul backend as a
// peer-paired pool: a case is replenished under the uniform plan of the
// backend, and the session provisioned from that plan's pool must be
// bit-identical to the same plan run inline and to the plaintext
// reference — the bank adds storage, not arithmetic, for every backend.
func TestBankMatmulBackendPools(t *testing.T) {
	ternary := func(c *Case) bool { return c.Scheme == "binary" || c.Scheme == "ternary" }
	backends := []struct {
		name    string
		backend core.BackendID
		fits    func(*Case) bool
	}{
		{"abnn2-onebatch", core.BackendABNN2, func(c *Case) bool { return c.Batch == 1 }},
		{"abnn2-multibatch", core.BackendABNN2, func(c *Case) bool { return c.Batch > 1 }},
		{"secureml", core.BackendSecureML, func(c *Case) bool { return c.Batch > 1 }},
		{"minionn-512", core.BackendMiniONN, func(c *Case) bool { return c.Batch > 1 }},
		{"quotient", core.BackendQuotient, func(c *Case) bool { return c.Batch == 1 && ternary(c) }},
	}
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			t.Parallel()
			c := findCase(t, be.fits)
			p := plan.Uniform(be.backend, len(c.Model.Layers))
			if err := p.Validate(core.ArchOf(c.Model), c.Batch); err != nil {
				t.Fatalf("%s: plan %s: %v", c.Desc(), p, err)
			}
			planned := func(server bool, cfg *abnn2.Config) {
				cfg.Plan = p
				cfg.MiniONNKeyBits = planSweepKeyBits
			}
			inline, err := RunSecureCfg(c, 0, planned)
			if err != nil {
				t.Fatalf("%s: inline run: %v", c.Desc(), err)
			}
			banked, err := peerBanked(t, c, p, planSweepKeyBits)
			if err != nil {
				t.Fatalf("%s: %v", c.Desc(), err)
			}
			out, err := RunSecureCfg(c, 0, func(server bool, cfg *abnn2.Config) {
				planned(server, cfg)
				banked(server, cfg)
			})
			if err != nil {
				t.Fatalf("%s: banked run: %v", c.Desc(), err)
			}
			if err := checkBitIdentical(c, be.name+" banked", out, inline); err != nil {
				t.Fatal(err)
			}
		})
	}
}
