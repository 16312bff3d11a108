package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"abnn2"
	"abnn2/internal/serve"
)

// modelName is the registry name the runtime serves the model under.
const modelName = "bench"

// bankCapacity bounds each peer pool. The benchmark holds at most two
// replenishment rounds in stock, so the bound never stops a round.
const bankCapacity = 64

// party is one side's durable correlation store and the bank over it.
type party struct {
	store *abnn2.BankStore
	bank  *abnn2.Bank
}

func openParty(dir string, rec *recorder) (*party, error) {
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	sp := rec.start("bank.recover")
	_, err = st.Recover()
	sp.end()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("recover store: %w", err)
	}
	return &party{store: st, bank: abnn2.NewBank(abnn2.BankOptions{Capacity: bankCapacity, Store: st})}, nil
}

func (p *party) close() {
	if p != nil {
		p.bank.Close()
		p.store.Close()
	}
}

// offlineRound is one replenishment session: corrs correlations generated
// by the peer-paired offline protocol, its wire bytes (after the serve
// handshake) and its wall time (handshake included).
type offlineRound struct {
	corrs int
	bytes int64
	dur   time.Duration
}

// deployment is one server runtime plus its client, set up the way the
// workload runs: durable stores and a banked runtime for the banked
// workloads, a persistent session unless every request connects afresh.
type deployment struct {
	w       workload
	qm      *abnn2.QuantizedModel
	dir     string
	metrics *serve.Metrics

	srv, cli *party // nil for the unbanked workload
	rt       *serve.Runtime
	sess     *session // nil when every request connects afresh

	rec  *recorder       // the benchmark's own spans; nil records none
	sink abnn2.TraceSink // the program's phase spans; nil disables tracing

	stock          int // replenished correlations no request has used yet
	rounds         []offlineRound
	storeMBPerCorr float64 // both parties' store bytes per correlation after the first round
}

// newDeployment sets a workload up from nothing: store recovery,
// runtime, the first replenishment round and the persistent Dial. It is
// what setup_s times. rec records the benchmark's own spans and prog the
// program's phase spans; either may be nil.
func newDeployment(w workload, qm *abnn2.QuantizedModel, dir string, m *serve.Metrics, rec, prog *recorder) (d *deployment, err error) {
	d = &deployment{w: w, qm: qm, dir: dir, metrics: m, rec: rec}
	if prog != nil {
		d.sink = prog
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if w.banked {
		if d.srv, err = openParty(filepath.Join(dir, "server"), rec); err != nil {
			return d, err
		}
		if d.cli, err = openParty(filepath.Join(dir, "client"), rec); err != nil {
			return d, err
		}
	}
	if d.rt, err = d.runtime(); err != nil {
		return d, err
	}
	if w.banked {
		if err = d.replenish(); err != nil {
			return d, err
		}
		size, err := dirBytes(dir)
		if err != nil {
			return d, err
		}
		d.storeMBPerCorr = float64(size) / 1e6 / float64(w.round)
	}
	if !w.connect {
		if d.sess, err = d.dial(); err != nil {
			return d, err
		}
	}
	return d, nil
}

// runtime builds a serving runtime over the deployment's server bank.
// The server runs the default OfflineAuto: see README.md, "serve.degraded".
func (d *deployment) runtime() (*serve.Runtime, error) {
	reg := serve.NewRegistry()
	if _, err := reg.Add(modelName, d.qm); err != nil {
		return nil, err
	}
	opts := serve.Options{Registry: reg, Metrics: d.metrics, Session: abnn2.Config{Trace: d.sink}}
	if d.srv != nil {
		opts.Bank = d.srv.bank
	}
	return serve.New(opts)
}

// traceOn switches the deployment to a traced runtime over the same
// banks and re-opens the persistent session on it, so every later
// request, Dial and replenishment emits phase spans into rec.
func (d *deployment) traceOn(rec *recorder) error {
	d.rec, d.sink = rec, rec
	rt, err := d.runtime()
	if err != nil {
		return err
	}
	d.rt = rt
	if d.sess != nil {
		if err := d.sess.close(nil); err != nil {
			return fmt.Errorf("close untraced session: %w", err)
		}
		d.sess = nil
		if d.sess, err = d.dial(); err != nil {
			return err
		}
	}
	return nil
}

func (d *deployment) close() {
	if d.sess != nil {
		_ = d.sess.close(nil) // teardown: the window already checked every request
		d.sess = nil
	}
	d.cli.close()
	d.srv.close()
	os.RemoveAll(d.dir)
}

// serveConn hands the server end of a pipe to the runtime and returns
// the channel HandleConn's outcome arrives on.
func serveConn(rt *serve.Runtime, conn abnn2.Conn) <-chan error {
	done := make(chan error, 1)
	go func() { done <- rt.HandleConn(context.Background(), conn, "perfbench") }()
	return done
}

// replenish runs one peer-paired offline session through the runtime's
// offline handshake, storing w.round correlations in both parties' stores.
func (d *deployment) replenish() error {
	sconn, cconn := abnn2.Pipe()
	done := serveConn(d.rt, sconn)
	start := time.Now()
	sp := d.rec.start("bank.replenish")
	got, bytes, err := d.replenishOn(&countingConn{Conn: cconn})
	cconn.Close()
	serr := <-done
	sp.end()
	dur := time.Since(start)
	if err != nil {
		return fmt.Errorf("replenish: %w", err)
	}
	if serr != nil {
		return fmt.Errorf("replenish (server): %w", serr)
	}
	if got != d.w.round {
		return fmt.Errorf("replenish stored %d correlations, want %d", got, d.w.round)
	}
	d.stock += got
	d.rounds = append(d.rounds, offlineRound{corrs: got, bytes: bytes, dur: dur})
	return nil
}

func (d *deployment) replenishOn(conn *countingConn) (int, int64, error) {
	info, err := serve.ClientHandshakeOffline(conn, modelName, d.cli.store.PeerID().String())
	if err != nil {
		return 0, 0, err
	}
	peer, err := abnn2.ParseBankPeerID(info.Peer)
	if err != nil {
		return 0, 0, err
	}
	cfg := abnn2.Config{Bank: d.cli.bank, BankModel: info.BankID, SessionID: info.SessionID, Trace: d.sink}
	before := conn.n.Load()
	got, err := abnn2.ReplenishSession(context.Background(), conn, info.Arch, cfg, peer, d.w.batch, d.w.round)
	return got, conn.n.Load() - before, err
}

// countingConn counts the bytes one end sends and receives, in that
// end's own call order. A pipe meter cannot split a connection at a
// protocol boundary: the server starts its setup right after its
// handshake reply, racing a snapshot taken on the client's side.
type countingConn struct {
	abnn2.Conn
	n atomic.Int64
}

func (c *countingConn) Send(msg []byte) error {
	c.n.Add(int64(len(msg)))
	return c.Conn.Send(msg)
}

func (c *countingConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	c.n.Add(int64(len(msg)))
	return msg, err
}

// session is one client connection through the runtime.
type session struct {
	client *abnn2.Client
	meter  *abnn2.Meter
	done   <-chan error
}

// dial opens a session: serve handshake and admission, then Dial. A
// banked client runs OfflineBanked, so a request that would fall back to
// the inline offline phase fails instead.
func (d *deployment) dial() (*session, error) {
	sconn, pipe, meter := abnn2.MeteredPipe()
	done := serveConn(d.rt, sconn)
	cconn := &countingConn{Conn: pipe}
	sp := d.rec.start("serve.handshake")
	info, err := serve.ClientHandshakeInfo(cconn, modelName)
	sp.endBytes(cconn.n.Load())
	if err != nil {
		cconn.Close()
		<-done
		return nil, fmt.Errorf("handshake: %w", err)
	}
	cfg := abnn2.Config{SessionID: info.SessionID, Trace: d.sink}
	if d.cli != nil {
		cfg.Bank, cfg.OfflineMode = d.cli.bank, abnn2.OfflineBanked
		cfg.BankModel, cfg.BankPeer = info.BankID, info.Peer
	}
	before := cconn.n.Load()
	sp = d.rec.start("session.dial")
	client, err := abnn2.Dial(cconn, info.Arch, cfg)
	sp.endBytes(cconn.n.Load() - before)
	if err != nil {
		cconn.Close()
		<-done
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &session{client: client, meter: meter, done: done}, nil
}

func (s *session) classify(rec *recorder, x [][]float64) ([]int, error) {
	sp := rec.start("session.classify")
	classes, err := s.client.Classify(x)
	sp.end()
	return classes, err
}

// close ends the session and returns the server's outcome.
func (s *session) close(rec *recorder) error {
	sp := rec.start("session.close")
	s.client.Close()
	err := <-s.done
	sp.end()
	return err
}

// request runs one request: a whole connection for the connect workload,
// one Classify on the persistent session otherwise. It returns the
// predicted classes and the request's wire traffic.
func (d *deployment) request(x [][]float64) ([]int, abnn2.Stats, error) {
	sp := d.rec.start("request")
	defer sp.end()
	if d.sess != nil {
		before := d.sess.meter.Snapshot()
		classes, err := d.sess.classify(d.rec, x)
		return classes, d.sess.meter.Snapshot().Sub(before), err
	}
	s, err := d.dial()
	if err != nil {
		return nil, abnn2.Stats{}, err
	}
	classes, err := s.classify(d.rec, x)
	if cerr := s.close(d.rec); err == nil && cerr != nil {
		err = fmt.Errorf("server: %w", cerr)
	}
	return classes, s.meter.Snapshot(), err
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
