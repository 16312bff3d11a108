package abnn2

// Correlation-bank facade: the offline precompute store in
// internal/bank, re-exported for users of the public API. A client and a
// server generate correlations together ahead of need — the genuine
// two-party offline protocol, run by ReplenishSession against
// ServeOfflineSession — and each party durably stores its own half of
// every correlation (OT-extension flights, per-layer matmul triplets,
// the client's future shares) in its own Bank. Sessions configured with
// Config.Bank then install a stored half instead of running the offline
// phase inline, so the online phase is round-trips plus matmul only.
// See DESIGN.md, "Offline correlation bank", for the single-use
// guarantee.

import (
	"errors"

	"abnn2/internal/bank"
)

// ErrBankDry reports that a session required banked provisioning
// (OfflineBanked) and found its correlation pool empty. It is a
// retryable condition — a BankReplenisher refills the pool in the
// background, so a caller that backs off briefly and retries the batch
// will usually find it warm. Test with errors.Is.
var ErrBankDry = errors.New("abnn2: correlation pool dry")

// BankSessionBackend is the BankKey.Backend of all-ABNN2 session pools;
// pools generated under a per-layer Plan are keyed by its fingerprint
// instead.
const BankSessionBackend = bank.SessionBackend

// Bank is one party's peer-paired correlation pools over its durable
// store; see NewBank.
type Bank = bank.Bank

// BankOptions sizes and instruments a Bank: its store, per-peer pool
// capacity, replenishment watermark and metrics observer.
type BankOptions = bank.Options

// BankKey identifies one correlation pool: (model, scheme, ring width,
// batch, backend).
type BankKey = bank.Key

// NewBank returns a bank over opts.Store, which must have completed
// Recover. Fill it with ReplenishSession (client) or ServeOfflineSession
// (server) and hand it to this party's endpoint via Config.Bank.
func NewBank(opts BankOptions) *Bank { return bank.New(opts) }

// BankModelID computes the bank identity of a model: a digest of its
// public description, so both parties derive it independently. Clients
// set it as Config.BankModel; the serve handshake also reports it.
func BankModelID(q *QuantizedModel) (string, error) {
	return bank.ModelID(q.qm)
}

// BankStore is the bank's durable on-disk pool store: append-only
// CRC-checksummed segment files per pool plus a claim journal with
// claim-before-use tombstoning, so single-use survives SIGKILL. Open
// one, Recover it, and pass it as BankOptions.Store; see DESIGN.md
// "Durable bank".
type BankStore = bank.Store

// BankStoreOptions configures OpenBankStore: directory, journal fsync
// cadence, segment rotation size, observer.
type BankStoreOptions = bank.StoreOptions

// BankRecoverStats summarizes a store's startup recovery scan.
type BankRecoverStats = bank.RecoverStats

// BankPeerID is a party's durable 128-bit identity, minted at first
// store open. Peer-paired correlations are keyed by the peer's ID.
type BankPeerID = bank.PeerID

// OpenBankStore creates or attaches to a durable pool store. Call
// Recover on it (directly, or via serve.Runtime.StartRecovery) before
// serving from it.
func OpenBankStore(opts BankStoreOptions) (*BankStore, error) { return bank.OpenStore(opts) }

// ParseBankPeerID parses the 32-hex-digit form of a peer ID, e.g. the
// one the serve handshake carries.
func ParseBankPeerID(s string) (BankPeerID, error) { return bank.ParsePeerID(s) }

// BankReplenisher keeps peer-paired pools above their low watermark by
// running remote offline sessions in the background, with jittered
// exponential backoff on transient failures; see NewBankReplenisher.
type BankReplenisher = bank.Replenisher

// BankReplenishOptions configures a BankReplenisher. Its Run callback
// typically dials the server's offline endpoint (serve.DialOffline) and
// drives ReplenishSession.
type BankReplenishOptions = bank.ReplenishOptions

// NewBankReplenisher validates options and returns a stopped
// replenisher; Start it and Close it on shutdown.
func NewBankReplenisher(opts BankReplenishOptions) (*BankReplenisher, error) {
	return bank.NewReplenisher(opts)
}

// OfflineMode selects how a session provisions its offline phase; see
// Config.OfflineMode.
type OfflineMode int

const (
	// OfflineAuto draws from Config.Bank when a correlation is available
	// and falls back to inline offline generation when the pool is dry or
	// no bank is configured. The default.
	OfflineAuto OfflineMode = iota
	// OfflineBanked requires the bank: a dry pool (client) or an inline
	// announcement (server) fails the batch immediately instead of
	// falling back. Use it to keep latency-critical serving off the
	// offline path, and in tests that must not silently degrade.
	OfflineBanked
)

func (m OfflineMode) String() string {
	switch m {
	case OfflineAuto:
		return "auto"
	case OfflineBanked:
		return "banked"
	}
	return "invalid"
}
