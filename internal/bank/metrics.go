package bank

import "abnn2/internal/metrics"

// NewMetricsObserver bridges bank events into a metrics registry:
//
//	abnn2_bank_peer_hits_total{key}          peer-paired draws served
//	abnn2_bank_peer_misses_total{key}        draws that found no half
//	abnn2_bank_peer_claims_total{key}        server halves claimed
//	abnn2_bank_peer_claim_misses_total{key}  claims for unknown or spent ids
//
// plus the durable-store and replenisher series (plain, so every series
// is visible in a scrape even at zero — the CI integration job greps for
// them):
//
//	abnn2_bank_persist_segments_total        segment files opened
//	abnn2_bank_persist_appends_total         records persisted
//	abnn2_bank_persist_claims_total          records tombstoned in the journal
//	abnn2_bank_persist_journal_fsyncs_total  journal fsync barriers
//	abnn2_bank_persist_recovered_records     records available after recovery
//	abnn2_bank_persist_quarantined_total     corrupt segments/dirs quarantined
//	abnn2_bank_persist_pruned_total          fully-claimed segment files deleted
//	abnn2_bank_persist_errors_total          store append/claim/decode failures
//	abnn2_bank_replenish_rounds_total        remote offline rounds completed
//	abnn2_bank_replenish_retries_total       replenish attempts that failed
//	abnn2_bank_replenish_backoff_ms          current replenisher backoff (0 = healthy)
//
// Register once per registry and pass as Options.Observer (and
// StoreOptions.Observer — the observer is shared).
func NewMetricsObserver(r *metrics.Registry) Observer {
	return &metricsObserver{
		peerHits:        r.NewCounterVec("abnn2_bank_peer_hits_total", "Peer-paired pool draws served.", "key"),
		peerMisses:      r.NewCounterVec("abnn2_bank_peer_misses_total", "Peer-paired pool draws that found no half.", "key"),
		peerClaims:      r.NewCounterVec("abnn2_bank_peer_claims_total", "Peer-paired server halves claimed.", "key"),
		peerClaimMisses: r.NewCounterVec("abnn2_bank_peer_claim_misses_total", "Peer-paired claims for unknown or spent IDs.", "key"),
		segments:        r.NewCounter("abnn2_bank_persist_segments_total", "Durable-store segment files opened."),
		appends:         r.NewCounter("abnn2_bank_persist_appends_total", "Correlation records persisted."),
		persistClaims:   r.NewCounter("abnn2_bank_persist_claims_total", "Correlation records tombstoned in the claim journal."),
		fsyncs:          r.NewCounter("abnn2_bank_persist_journal_fsyncs_total", "Claim-journal fsync barriers."),
		recovered:       r.NewGauge("abnn2_bank_persist_recovered_records", "Records available after the startup recovery scan."),
		quarantined:     r.NewCounter("abnn2_bank_persist_quarantined_total", "Corrupt segments or pool dirs quarantined during recovery."),
		pruned:          r.NewCounter("abnn2_bank_persist_pruned_total", "Fully-claimed segment files deleted during recovery or drain."),
		persistErrs:     r.NewCounter("abnn2_bank_persist_errors_total", "Durable-store append/claim/decode failures."),
		replenishRounds: r.NewCounter("abnn2_bank_replenish_rounds_total", "Remote offline replenishment rounds completed."),
		replenishRetry:  r.NewCounter("abnn2_bank_replenish_retries_total", "Remote replenishment attempts that failed."),
		backoffMS:       r.NewGauge("abnn2_bank_replenish_backoff_ms", "Current replenisher backoff in milliseconds (0 when healthy)."),
	}
}

type metricsObserver struct {
	peerHits        *metrics.CounterVec
	peerMisses      *metrics.CounterVec
	peerClaims      *metrics.CounterVec
	peerClaimMisses *metrics.CounterVec
	segments        *metrics.Counter
	appends         *metrics.Counter
	persistClaims   *metrics.Counter
	fsyncs          *metrics.Counter
	recovered       *metrics.Gauge
	quarantined     *metrics.Counter
	pruned          *metrics.Counter
	persistErrs     *metrics.Counter
	replenishRounds *metrics.Counter
	replenishRetry  *metrics.Counter
	backoffMS       *metrics.Gauge
}

func (m *metricsObserver) BankEvent(ev Event) {
	k := ev.Key.String()
	switch ev.Kind {
	case "peer-hit":
		m.peerHits.With(k).Inc()
	case "peer-miss":
		m.peerMisses.With(k).Inc()
	case "peer-claim":
		m.peerClaims.With(k).Inc()
	case "peer-claim-miss":
		m.peerClaimMisses.With(k).Inc()
	case "persist-segment":
		m.segments.Inc()
	case "persist-append":
		m.appends.Inc()
	case "persist-claim":
		m.persistClaims.Inc()
	case "persist-journal-fsync":
		m.fsyncs.Inc()
	case "persist-recover":
		m.recovered.Set(int64(ev.Depth))
	case "persist-quarantine":
		m.quarantined.Inc()
	case "persist-prune":
		m.pruned.Inc()
	case "persist-error", "persist-claim-drop", "persist-decode-error":
		m.persistErrs.Inc()
	case "replenish-round":
		m.replenishRounds.Inc()
	case "replenish-retry":
		m.replenishRetry.Inc()
	case "replenish-backoff":
		m.backoffMS.Set(int64(ev.Depth))
	}
}
