package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"abnn2"
	"abnn2/internal/transport"
)

// The durable-bank start-up table: the same banked prediction served
// from a cold store (fresh directory — recovery finds nothing, the
// remote offline protocol must run on the boot path) and from a warm
// store (stocked by a previous run — recovery restores persisted
// peer-paired correlations and the boot path is a directory scan plus
// one claim). The gap between the rows is what persistence buys at
// restart time: the offline protocol's latency and wire traffic move
// off the first request.

// TableDurableRow is one measured start-up mode.
type TableDurableRow struct {
	Scheme    string  `json:"scheme"`
	Batch     int     `json:"batch"`
	Mode      string  `json:"mode"`      // "cold-start" or "warm-start"
	BootSec   float64 `json:"boot_sec"`  // store open + recovery (+ replenishment when cold)
	FirstSec  float64 `json:"first_sec"` // boot through the first banked prediction
	CommMB    float64 `json:"comm_mb"`   // wire traffic in the same window
	Recovered int     `json:"recovered"` // records recovery found on disk
}

// TableBankDurable measures cold-start vs warm-start time-to-first-
// prediction over a durable store pair.
func TableBankDurable(opt Options) []TableDurableRow {
	const scheme, frac = "4(2,2)", uint(6)
	sizes := []int{784, 128, 128, 10}
	batch := 8
	if opt.Quick {
		sizes = []int{32, 16, 10}
		batch = 2
	}
	qm, err := abnn2.NewMLP(sizes...).Quantize(scheme, frac)
	if err != nil {
		fmt.Fprintf(opt.out(), "durable table: quantize: %v\n", err)
		return nil
	}
	var rows []TableDurableRow
	tb := &table{header: []string{"scheme", "batch", "mode", "boot(s)", "first(s)", "comm(MB)", "recovered"}}
	for _, mode := range []string{"cold-start", "warm-start"} {
		r, err := runDurableStart(qm, sizes[0], batch, opt.Workers, mode == "warm-start")
		if err != nil {
			fmt.Fprintf(opt.out(), "durable table: %s: %v\n", mode, err)
			return rows
		}
		r.Scheme, r.Batch, r.Mode = scheme, batch, mode
		rows = append(rows, r)
		tb.add(r.Scheme, count(int64(r.Batch)), r.Mode,
			secs(r.BootSec), secs(r.FirstSec), mb(r.CommMB), count(int64(r.Recovered)))
	}
	fmt.Fprintf(opt.out(), "Durable bank start-up (time to first banked prediction):\n%s\n", tb)
	return rows
}

// durableStartDirs builds the two parties' store directories; when warm
// is set they are stocked off the clock by a full remote offline session
// and everything is closed again, modeling a restart.
func durableStartDirs(qm *abnn2.QuantizedModel, batch, workers int, warm bool) (srvDir, cliDir string, err error) {
	srvDir, err = os.MkdirTemp("", "abnn2-durable-srv-*")
	if err != nil {
		return "", "", err
	}
	cliDir, err = os.MkdirTemp("", "abnn2-durable-cli-*")
	if err != nil {
		return "", "", err
	}
	if !warm {
		return srvDir, cliDir, nil
	}
	srvStore, srvBank, err := openDurableParty(srvDir, 1)
	if err != nil {
		return "", "", err
	}
	cliStore, cliBank, err := openDurableParty(cliDir, 1)
	if err != nil {
		return "", "", err
	}
	_, err = replenishPeers(qm, srvStore, srvBank, cliStore, cliBank, batch, 1, workers)
	cliBank.Close()
	cliStore.Close()
	srvBank.Close()
	srvStore.Close()
	if err != nil {
		return "", "", fmt.Errorf("stock warm store: %w", err)
	}
	return srvDir, cliDir, nil
}

// openDurableParty opens and recovers one party's store on dir, with a
// bank whose peer pools hold up to capacity correlations.
func openDurableParty(dir string, capacity int) (*abnn2.BankStore, *abnn2.Bank, error) {
	st, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	if _, err := st.Recover(); err != nil {
		st.Close()
		return nil, nil, err
	}
	b := abnn2.NewBank(abnn2.BankOptions{Capacity: capacity, Store: st})
	return st, b, nil
}

// replenishPeers runs one offline session over a metered pipe, storing n
// peer-paired correlations in each party's store, and returns the
// session's wire traffic.
func replenishPeers(qm *abnn2.QuantizedModel, srvStore *abnn2.BankStore, srvBank *abnn2.Bank,
	cliStore *abnn2.BankStore, cliBank *abnn2.Bank, batch, n, workers int) (transport.Stats, error) {
	id, err := abnn2.BankModelID(qm)
	if err != nil {
		return transport.Stats{}, err
	}
	sconn, cconn, meter := transport.MeteredPipe()
	scfg := abnn2.Config{RingBits: 32, Seed: 201, Workers: workers, Bank: srvBank}
	ccfg := abnn2.Config{RingBits: 32, Seed: 202, Workers: workers, Bank: cliBank, BankModel: id}
	srvErr := make(chan error, 1)
	go func() {
		err := abnn2.ServeOfflineSession(context.Background(), sconn, qm, scfg, cliStore.PeerID())
		sconn.Close()
		srvErr <- err
	}()
	got, err := abnn2.ReplenishSession(context.Background(), cconn, qm.Arch(), ccfg,
		srvStore.PeerID(), batch, n)
	cconn.Close()
	if err != nil {
		return transport.Stats{}, fmt.Errorf("replenish: %w", err)
	}
	if serr := <-srvErr; serr != nil {
		return transport.Stats{}, fmt.Errorf("offline serve: %w", serr)
	}
	if got != n {
		return transport.Stats{}, fmt.Errorf("replenished %d correlations, want %d", got, n)
	}
	return meter.Snapshot(), nil
}

// runDurableStart measures one start-up: store open + recovery (+ the
// remote offline session when the store is cold) through the first
// banked prediction.
func runDurableStart(qm *abnn2.QuantizedModel, inputSize, batch, workers int, warm bool) (TableDurableRow, error) {
	srvDir, cliDir, err := durableStartDirs(qm, batch, workers, warm)
	if srvDir != "" {
		defer os.RemoveAll(srvDir)
	}
	if cliDir != "" {
		defer os.RemoveAll(cliDir)
	}
	if err != nil {
		return TableDurableRow{}, err
	}
	id, err := abnn2.BankModelID(qm)
	if err != nil {
		return TableDurableRow{}, err
	}
	inputs := make([][]float64, batch)
	for k := range inputs {
		x := make([]float64, inputSize)
		for i := range x {
			x[i] = float64((k*31+i*17)%23)/23 - 0.5
		}
		inputs[k] = x
	}

	var row TableDurableRow
	start := time.Now()
	srvStore, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: srvDir})
	if err != nil {
		return row, err
	}
	defer srvStore.Close()
	cliStore, err := abnn2.OpenBankStore(abnn2.BankStoreOptions{Dir: cliDir})
	if err != nil {
		return row, err
	}
	defer cliStore.Close()
	sstats, err := srvStore.Recover()
	if err != nil {
		return row, err
	}
	if _, err := cliStore.Recover(); err != nil {
		return row, err
	}
	row.Recovered = sstats.Records
	srvBank := abnn2.NewBank(abnn2.BankOptions{Capacity: 1, Store: srvStore})
	defer srvBank.Close()
	cliBank := abnn2.NewBank(abnn2.BankOptions{Capacity: 1, Store: cliStore})
	defer cliBank.Close()
	var comm transport.Stats
	if !warm {
		// Cold boot must run the offline protocol before serving.
		comm, err = replenishPeers(qm, srvStore, srvBank, cliStore, cliBank, batch, 1, workers)
		if err != nil {
			return row, err
		}
	}
	row.BootSec = time.Since(start).Seconds()

	scfg := abnn2.Config{RingBits: 32, Seed: 203, Workers: workers,
		Bank: srvBank, OfflineMode: abnn2.OfflineBanked}
	ccfg := abnn2.Config{RingBits: 32, Seed: 204, Workers: workers,
		Bank: cliBank, OfflineMode: abnn2.OfflineBanked,
		BankModel: id, BankPeer: srvStore.PeerID().String()}
	sconn, cconn := transport.Pipe()
	srvErr := make(chan error, 1)
	go func() {
		_, err := abnn2.Serve(sconn, qm, scfg)
		srvErr <- err
	}()
	client, err := abnn2.Dial(cconn, qm.Arch(), ccfg)
	if err != nil {
		cconn.Close()
		<-srvErr
		return row, fmt.Errorf("dial: %w", err)
	}
	if _, err := client.Infer(inputs); err != nil {
		client.Close()
		<-srvErr
		return row, fmt.Errorf("first banked inference: %w", err)
	}
	row.FirstSec = time.Since(start).Seconds()
	comm = comm.Add(client.Stats())
	client.Close()
	if err := <-srvErr; err != nil {
		return row, fmt.Errorf("server: %w", err)
	}
	row.CommMB = float64(comm.TotalBytes()) / (1 << 20)
	return row, nil
}
