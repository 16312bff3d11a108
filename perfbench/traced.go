package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	imetrics "abnn2/internal/metrics"
	"abnn2/internal/serve"
)

// minCoverage is the tolerance of the coverage check: at least this share
// of request wall time must land in layer spans, not in the self time of
// a container (request, Classify, batch, online).
const minCoverage = 90.0

// rejectCodes are the serve layer's rejection codes, summed into
// serve.rejected.
var rejectCodes = []string{serve.RejectSaturated, serve.RejectBankDry, serve.RejectDraining,
	serve.RejectUnknownModel, serve.RejectBadHello, serve.RejectBadPlan}

// traced is the per-layer run. It splits the window in two halves: the
// first untraced, the second with the benchmark's own spans and the
// program's phase spans on. Comparing the halves' p50 gives the tracing
// overhead; the second half gives every layer figure. The kernel probes
// run after both.
func (b *bench) traced(o options, dir string, out io.Writer) (*result, error) {
	m := serve.NewMetrics(imetrics.NewRegistry())
	rec := &recorder{}
	d, err := newDeployment(b.w, b.qm, filepath.Join(dir, "setup"), m, rec, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	storeMB := d.storeMBPerCorr

	d.rec = nil
	plain, err := b.runWindow(d, o.window/2)
	if err != nil {
		return nil, err
	}
	tracedStart := time.Now()
	if err := d.traceOn(rec); err != nil {
		return nil, err
	}
	if b.w.banked {
		// At least one replenishment round runs traced, whatever the
		// stock the untraced half left.
		if err := d.replenish(); err != nil {
			return nil, err
		}
	}
	tr, err := b.runWindow(d, o.window/2)
	if err != nil {
		return nil, err
	}
	if !b.w.banked {
		cal, err := b.calibrateOffline(dir, m, rec)
		if err != nil {
			return nil, err
		}
		storeMB = cal.storeMBPerCorr
		cal.close()
	}
	probe, err := runProbes(b.qm.Arch(), b.w.batch)
	if err != nil {
		return nil, err
	}

	res := verdict(out, plain, tr)
	if len(plain.latMS) == 0 || len(tr.latMS) == 0 {
		return res, nil
	}
	nodes := analyze(rec.take())
	reqs := float64(tr.attempted)
	cov := coverage(nodes)

	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	perReq := func(q spanQuery) (float64, float64) {
		d, sent, _ := sumSpans(nodes, q, true)
		return ms(d) / reqs, float64(sent) / 1e6 / reqs
	}
	mean := func(q spanQuery) (float64, float64) {
		d, sent, c := sumSpans(nodes, q, false)
		c = max(c, 1)
		return ms(d) / float64(c), float64(sent) / float64(c)
	}
	own := func(name string) spanQuery { return spanQuery{"bench", name, -1} }

	v, _ := mean(own("serve.handshake"))
	put("serve.handshake_ms", v, "ms")
	var rejected int64
	for _, code := range rejectCodes {
		rejected += m.Shed.With(code).Value()
	}
	put("serve.rejected", float64(rejected), "count")
	put("serve.degraded", float64(m.Degraded.Value()), "count")
	v, bytes := mean(own("session.dial"))
	put("session.dial_ms", v, "ms")
	put("session.dial_kb", bytes/1e3, "KB")
	v, _ = mean(own("session.classify"))
	put("session.classify_ms", v, "ms")
	v, _ = mean(own("bank.recover"))
	put("bank.recover_ms", v, "ms")
	v, _ = mean(own("bank.replenish"))
	put("bank.replenish_ms", v/float64(b.w.round), "ms")
	v, _ = perReq(spanQuery{"", "bank-peer", -1})
	put("bank.claim_ms", v, "ms")
	put("bank.store_mb_per_corr", storeMB, "MB")

	for i := 0; i < 3; i++ {
		v, _ = mean(spanQuery{"client", "triplets", i})
		put(fmt.Sprintf("core.triplets_ms.l%d", i), v, "ms")
		v, _ = perReq(spanQuery{"server", "matmul", i})
		put(fmt.Sprintf("core.matmul_ms.l%d", i), v, "ms")
	}
	// The inline workload's offline phase runs on the request path
	// ("offline"); replenishment runs the same generator ("offline-replenish").
	dIn, _, cIn := sumSpans(nodes, spanQuery{"client", "offline", -1}, false)
	dRep, _, cRep := sumSpans(nodes, spanQuery{"client", "offline-replenish", -1}, false)
	put("core.offline_ms", ms(dIn+dRep)/float64(max(cIn+cRep, 1)), "ms")
	for _, p := range []string{"client", "server"} {
		for i := 0; i < 2; i++ {
			v, mb := perReq(spanQuery{p, "relu", i})
			put(fmt.Sprintf("core.relu_ms.l%d.%s", i, p), v, "ms")
			put(fmt.Sprintf("core.relu_mb.l%d.%s", i, p), mb, "MB")
		}
		v, mb := perReq(spanQuery{p, "pool", 0})
		put("core.pool_ms.l0."+p, v, "ms")
		put("core.pool_mb.l0."+p, mb, "MB")
	}
	v, _ = perReq(spanQuery{"client", "output", -1})
	put("core.output_wait_ms", v, "ms")

	put("gc.garble_ns_per_and", probe.garbleNsPerAND, "ns")
	put("gc.eval_ns_per_and", probe.evalNsPerAND, "ns")
	put("gc.and_gates", float64(probe.andGates), "count")
	put("otext.kk13_ns_per_ot", probe.kk13NsPerOT, "ns")
	put("otext.kk13_ots", float64(probe.kk13OTs), "count")
	put("otext.iknp_ns_per_ot", probe.iknpNsPerOT, "ns")
	put("otext.iknp_ots", float64(probe.iknpOTs), "count")
	put("baseot.setup_ms", probe.baseOTms, "ms")
	put("baseot.count", float64(probe.baseOTs), "count")
	put("prg.hash_ns", probe.hashNs, "ns")

	put("go.alloc_mb_per_req", float64(plain.allocs)/1e6/float64(plain.attempted), "MB")
	put("go.gc_cycles_per_req", float64(plain.gcs)/float64(plain.attempted), "count")
	p50U, p50T := quantile(plain.latMS, 0.5), quantile(tr.latMS, 0.5)
	put("trace.overhead_pct", 100*(p50T/p50U-1), "%")
	put("trace.coverage_pct", cov, "%")

	fmt.Fprintf(out, "untraced half: %d requests, p50 %.3f ms; traced half: %d requests, p50 %.3f ms\n",
		plain.attempted, p50U, tr.attempted, p50T)
	printSelfTable(out, "self time on the request path, per request:",
		selfTable(nodes, func(n node) bool { return n.inRequest }), reqs)
	if _, _, corrs := sumSpans(nodes, spanQuery{"client", "offline-replenish", -1}, false); corrs > 0 {
		printSelfTable(out, "self time off the request path (replenishment rounds, traced session setup), per replenished correlation:",
			selfTable(nodes, func(n node) bool { return !n.inRequest && !n.start.Before(tracedStart) }), float64(corrs))
	}
	fmt.Fprintf(out, "kernel probes: garble %.1f ns/AND, evaluate %.1f ns/AND at %d AND gates per request; "+
		"KK13 %.1f ns/OT at %d OTs per correlation; IKNP %.1f ns/OT at %d label OTs per request; "+
		"%d base OTs %.2f ms; FastOracle.Hash %.1f ns for %d bytes\n",
		probe.garbleNsPerAND, probe.evalNsPerAND, probe.andGates, probe.kk13NsPerOT, probe.kk13OTs,
		probe.iknpNsPerOT, probe.iknpOTs, probe.baseOTs, probe.baseOTms, probe.hashNs, probe.hashBytes)
	if cov < minCoverage {
		res.Correct = false
		fmt.Fprintf(out, "FAIL layer spans cover %.1f%% of request wall time, want at least %.0f%%\n", cov, minCoverage)
	} else {
		fmt.Fprintf(out, "coverage: layer spans cover %.1f%% of request wall time (tolerance: at least %.0f%%)\n", cov, minCoverage)
	}
	printMetrics(out, res.Metrics)
	return res, nil
}
