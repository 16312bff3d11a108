package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"abnn2"
	imetrics "abnn2/internal/metrics"
	"abnn2/internal/serve"
	"abnn2/internal/transport"
)

// workload is one traffic mix. Every workload drives one closed-loop
// client: the next request goes when the previous one has returned.
type workload struct {
	name    string
	model   string // "mlp" (Fig. 4, 784-128-128-10) or "cnn" (NewSmallCNN(4))
	batch   int    // input samples per request
	connect bool   // each request opens and closes its own connection
	banked  bool   // requests draw peer-paired correlations from the bank
	round   int    // correlations per replenishment session
	setups  int    // setups per end-to-end run; setup_s is their median
}

var workloads = []workload{
	// An interactive single-image user: base-OT setup and one durable
	// bank claim per request, little garbled-circuit work.
	{name: "mlp-b1-connect", model: "mlp", batch: 1, connect: true, banked: true, round: 8, setups: 3},
	// The headline case: online time is almost all GC ReLU, base OT is
	// paid once, and the bank's write side is large correlations.
	{name: "mlp-b32-banked", model: "mlp", batch: 32, banked: true, round: 2, setups: 3},
	// A client without a bank: the offline phase runs inline on the
	// request path, and the GC runs the max-pool circuit.
	{name: "cnn-b8-inline", model: "cnn", batch: 8, round: 2, setups: 5},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// bench is one run of one workload.
type bench struct {
	w      workload
	qm     *abnn2.QuantizedModel
	pool   [][]float64
	want   []int
	cursor int
}

func run(o options, out io.Writer) (*result, error) {
	w, err := lookup(o.workload)
	if err != nil {
		return nil, err
	}
	qm, err := trainModel(w.model)
	if err != nil {
		return nil, err
	}
	pool, want := inputs(qm, o.seed)
	b := &bench{w: w, qm: qm, pool: pool, want: want}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(out, "workload %s seed %d window %v trace %v\n", w.name, o.seed, o.window, o.trace)
	if o.trace {
		return b.traced(o, dir, out)
	}
	return b.endToEnd(o, dir, out)
}

// next returns the next request's inputs and their plaintext classes.
func (b *bench) next() ([][]float64, []int) {
	x := make([][]float64, b.w.batch)
	want := make([]int, b.w.batch)
	for i := range x {
		j := (b.cursor + i) % len(b.pool)
		x[i], want[i] = b.pool[j], b.want[j]
	}
	b.cursor += b.w.batch
	return x, want
}

// window is what one timed window measured.
type window struct {
	latMS     []float64 // successful requests only
	wire      []abnn2.Stats
	online    time.Duration // summed request wall time; replenishment pauses excluded
	cpu       time.Duration
	allocs    uint64 // heap bytes allocated during requests
	gcs       uint64 // GC cycles completed during requests
	samples   int
	attempted int
	failed    int
	classes   map[int]int
	errs      []string
	rssMB     []float64 // peak resident set size sampled during each successful request
}

var runtimeSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func heapCounters() (allocs, gcs uint64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64()
}

// runWindow issues requests back to back until their summed wall time
// reaches length. A banked deployment whose stock is used up is
// replenished between requests, off the clock. A request that errors
// ends the window; one that returns a wrong class is counted and the
// window goes on.
func (b *bench) runWindow(d *deployment, length time.Duration) (*window, error) {
	w := &window{classes: map[int]int{}}
	rs := startRSSSampler()
	defer rs.close()
	for w.online < length {
		if d.w.banked && d.stock == 0 {
			if err := d.replenish(); err != nil {
				return w, err
			}
		}
		x, want := b.next()
		rs.reset()
		a0, g0 := heapCounters()
		cpu0, t0 := cpuTime(), time.Now()
		got, wire, err := d.request(x)
		lat := time.Since(t0)
		w.cpu += cpuTime() - cpu0
		a1, g1 := heapCounters()
		w.allocs, w.gcs = w.allocs+a1-a0, w.gcs+g1-g0
		w.online += lat
		w.attempted++
		rss := float64(rs.max()) / 1e6
		d.stock--
		if err == nil && len(got) != len(want) {
			err = fmt.Errorf("%d classes for %d inputs", len(got), len(want))
		}
		if err != nil {
			w.failed++
			w.errs = append(w.errs, fmt.Sprintf("request %d: %v", w.attempted, err))
			break
		}
		wrong := 0
		for i := range want {
			w.classes[got[i]]++
			if got[i] != want[i] {
				wrong++
			}
		}
		if wrong > 0 {
			w.failed++
			w.errs = append(w.errs, fmt.Sprintf("request %d: %d of %d classes differ from plaintext Predict", w.attempted, wrong, len(want)))
			continue
		}
		w.latMS = append(w.latMS, ms(lat))
		w.rssMB = append(w.rssMB, rss)
		w.wire = append(w.wire, wire)
		w.samples += len(x)
	}
	return w, nil
}

// verdict checks the windows' outputs: no failed request, and
// predictions spanning at least two classes, so that a model mapping
// everything to one class cannot pass.
func verdict(out io.Writer, ws ...*window) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	classes := map[int]bool{}
	for _, w := range ws {
		res.Attempted += w.attempted
		res.Failed += w.failed
		for c := range w.classes {
			classes[c] = true
		}
		for _, e := range w.errs {
			fmt.Fprintf(out, "FAIL %s\n", e)
		}
	}
	if res.Failed > 0 || len(classes) < 2 {
		res.Correct = false
	}
	if len(classes) < 2 {
		fmt.Fprintf(out, "FAIL predictions span %d classes, want at least 2\n", len(classes))
	}
	return res
}

// cheapest returns the wire cost of the request with the fewest bytes.
// Requests of one workload differ only in the digits of the session id
// the serve handshake carries, so this is exact across runs.
func cheapest(wire []abnn2.Stats) abnn2.Stats {
	best := wire[0]
	for _, s := range wire[1:] {
		if s.TotalBytes() < best.TotalBytes() {
			best = s
		}
	}
	return best
}

// offlineFigures returns MB per correlation (exact: every round has the
// same size and its bytes are counted after the serve handshake) and the
// median correlations per second over the rounds.
func offlineFigures(rounds []offlineRound) (mbPerCorr, corrPerSec float64) {
	rates := make([]float64, len(rounds))
	for i, r := range rounds {
		rates[i] = float64(r.corrs) / r.dur.Seconds()
	}
	return float64(rounds[0].bytes) / 1e6 / float64(rounds[0].corrs), quantile(rates, 0.5)
}

// calibrationRounds is how many replenishment rounds calibrateOffline
// runs; offline_corr_s is their median.
const calibrationRounds = 5

// calibrateOffline measures the offline generator at the inline
// workload's shape through the same peer-paired replenishment the banked
// workloads use; the inline workload itself runs it on the request path,
// where an untraced run cannot separate it.
func (b *bench) calibrateOffline(dir string, m *serve.Metrics, rec *recorder) (*deployment, error) {
	cw := b.w
	cw.banked, cw.connect = true, true
	d, err := newDeployment(cw, b.qm, filepath.Join(dir, "offline"), m, rec, rec)
	if err != nil {
		return nil, fmt.Errorf("offline calibration: %w", err)
	}
	for len(d.rounds) < calibrationRounds {
		if err := d.replenish(); err != nil {
			d.close()
			return nil, fmt.Errorf("offline calibration: %w", err)
		}
	}
	return d, nil
}

func (b *bench) endToEnd(o options, dir string, out io.Writer) (*result, error) {
	m := serve.NewMetrics(imetrics.NewRegistry())
	var setups []float64
	var d *deployment
	for i := 0; i < b.w.setups; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		d, err = newDeployment(b.w, b.qm, filepath.Join(dir, fmt.Sprintf("setup%d", i)), m, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()
	win, err := b.runWindow(d, o.window)
	if err != nil {
		return nil, err
	}
	rounds := d.rounds
	if !b.w.banked {
		cal, err := b.calibrateOffline(dir, m, nil)
		if err != nil {
			return nil, err
		}
		rounds = cal.rounds
		cal.close()
	}
	res := verdict(out, win)
	if len(win.latMS) == 0 {
		return res, nil
	}
	p50 := quantile(win.latMS, 0.5)
	wire := cheapest(win.wire)
	offMB, offRate := offlineFigures(rounds)
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("latency_p50_ms", p50, "ms")
	put("latency_p90_ms", quantile(win.latMS, 0.9), "ms")
	put("throughput_inf_s", float64(win.samples)/win.online.Seconds(), "1/s")
	put("wire_mb_per_req", float64(wire.TotalBytes())/1e6, "MB")
	put("flights_per_req", float64(wire.Flights), "count")
	put("wan_model_ms", wanModelMS(p50, wire), "ms")
	put("offline_mb_per_corr", offMB, "MB")
	put("offline_corr_s", offRate, "1/s")
	put("setup_s", quantile(setups, 0.5), "s")
	put("cpu_ms_per_req", ms(win.cpu)/float64(win.attempted), "ms")
	put("peak_rss_mb", quantile(win.rssMB, 0.5), "MB")
	put("success_rate", float64(win.attempted-win.failed)/float64(win.attempted), "ratio")
	fmt.Fprintf(out, "%d requests (%d samples, %d failed) in %.2f s online; %d classes\n",
		win.attempted, win.samples, win.failed, win.online.Seconds(), len(win.classes))
	printRounds(out, rounds)
	fmt.Fprintf(out, "latency ms: min %.1f p10 %.1f p50 %.1f p90 %.1f max %.1f\n", quantile(win.latMS, 0), quantile(win.latMS, 0.1),
		p50, quantile(win.latMS, 0.9), quantile(win.latMS, 1))
	printMetrics(out, res.Metrics)
	return res, nil
}

// printRounds reports the spread of the replenishment rounds' rates.
func printRounds(out io.Writer, rounds []offlineRound) {
	rates := make([]float64, len(rounds))
	for i, r := range rounds {
		rates[i] = float64(r.corrs) / r.dur.Seconds()
	}
	fmt.Fprintf(out, "%d replenishment rounds of %d correlations: %.3f / %.3f / %.3f correlations/s (min / median / max)\n",
		len(rounds), rounds[0].corrs, quantile(rates, 0), quantile(rates, 0.5), quantile(rates, 1))
}

// wanModelMS adds the modelled network time of the paper's Table 3 WAN
// (9 MB/s, 72 ms RTT) for the request's bytes and flights to its p50.
func wanModelMS(p50 float64, wire abnn2.Stats) float64 {
	return p50 + ms(transport.WANTable3.NetworkTime(wire))
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
