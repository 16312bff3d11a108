// Package bank implements the offline correlation bank: each party's
// durable store of precomputed offline material — OT-extension flights,
// per-layer matmul triplets, the client's future shares — so a session's
// online phase is round-trips plus matmul only (the paper's
// offline/online split, Tables 3-5, made operational).
//
// No third party is involved: a client and a server generate every
// correlation together by running the genuine two-party offline protocol
// ahead of need (ReplenishSession / ServeOfflineSession in the abnn2
// facade), and each party durably stores only its own half, keyed by the
// peer it was generated with and by (model identity, scheme η, ring
// width ℓ, batch size, backend). A later online session announces the correlation id
// in-band; the client draws its half with AcquirePeer and the server
// claims the matching half with ClaimPeer. Both go through the store's
// claim journal before the half is returned, so no correlation can back
// two online phases, even across a crash (see DESIGN.md, "Offline
// correlation bank").
package bank

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"abnn2/internal/core"
	"abnn2/internal/nn"
)

// SessionBackend is the Key.Backend of pools that feed all-ABNN2
// inference sessions.
const SessionBackend = "abnn2"

// PlanBackend returns the Key.Backend of session pools generated under
// the per-layer protocol plan with the given fingerprint (see
// internal/plan.Fingerprint), so a pool only ever serves sessions
// running that exact schedule.
func PlanBackend(fingerprint string) string { return "plan:" + fingerprint }

// Key identifies one correlation pool. Model is the digest returned by
// ModelID; Scheme is the quantization scheme designation (η); RingBits
// is ℓ; Batch the online batch size the correlations are sized for;
// Backend is SessionBackend or a PlanBackend.
type Key struct {
	Model    string
	Scheme   string
	RingBits uint
	Batch    int
	Backend  string
}

// String renders the key for labels and log lines, with the model digest
// truncated for readability.
func (k Key) String() string {
	model := k.Model
	if len(model) > 12 {
		model = model[:12]
	}
	return fmt.Sprintf("%s/%s/l%d/b%d/%s", model, k.Scheme, k.RingBits, k.Batch, k.Backend)
}

// Event is one bank occurrence delivered to an Observer: Kind is one of
// the peer-*, persist-* and replenish-* kinds listed at
// NewMetricsObserver; Depth is a pool depth or backoff where meaningful.
type Event struct {
	Kind  string
	Key   Key
	Depth int
	Err   error
}

// Observer receives bank events; see NewMetricsObserver for the standard
// metrics bridge. Calls may come from any goroutine and must not block.
type Observer interface {
	BankEvent(Event)
}

// Options sizes and instruments a Bank.
type Options struct {
	// Capacity bounds each peer pool's depth: a server refuses to
	// generate past it, and a Replenisher fills to it. Default 8.
	Capacity int
	// Low is the Replenisher's refill watermark. Default Capacity/2,
	// minimum 1.
	Low int
	// Observer, when non-nil, receives peer draw/claim and replenisher
	// events; see NewMetricsObserver.
	Observer Observer
	// Store is this party's durable store, where its halves live. It
	// must have completed Recover before the bank touches it. A bank
	// without a store holds nothing: every draw and claim misses.
	Store *Store
}

func (o Options) capacity() int {
	if o.Capacity <= 0 {
		return 8
	}
	return o.Capacity
}

func (o Options) low() int {
	if o.Low > 0 {
		return o.Low
	}
	if l := o.capacity() / 2; l > 0 {
		return l
	}
	return 1
}

// Bank is one party's view of its peer-paired correlation pools. All
// methods are safe for concurrent use.
type Bank struct {
	opts   Options
	closed atomic.Bool
}

// New returns a bank over opts.Store.
func New(opts Options) *Bank { return &Bank{opts: opts} }

// ModelID returns the bank identity of a quantized model: a digest of its
// canonical serialization, so both parties derive the same pool key from
// the same public model description.
func ModelID(qm *nn.QuantizedModel) (string, error) {
	data, err := nn.MarshalQuantized(qm)
	if err != nil {
		return "", fmt.Errorf("bank: model identity: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Store returns the bank's durable store.
func (b *Bank) Store() *Store { return b.opts.Store }

// Capacity returns the per-peer-pool depth bound.
func (b *Bank) Capacity() int { return b.opts.capacity() }

// Close stops the bank: every later draw and claim misses and every put
// fails. The store stays open; its owner closes it. Idempotent.
func (b *Bank) Close() error {
	b.closed.Store(true)
	return nil
}

// store returns the store while the bank is open, nil otherwise.
func (b *Bank) store() *Store {
	if b.closed.Load() {
		return nil
	}
	return b.opts.Store
}

// PutPeerClient durably stores the client half of a peer-paired
// correlation generated with the server identified by peer (the
// client-side commit of one replenishment round).
func (b *Bank) PutPeerClient(peer PeerID, key Key, id uint64, c *core.ClientCorr) error {
	return b.put(Scope{Peer: peer, Key: key}, id, EncodeClientCorr(c))
}

// PutPeerServer durably stores the server half of a peer-paired
// correlation generated with the client identified by peer.
func (b *Bank) PutPeerServer(peer PeerID, key Key, id uint64, c *core.ServerCorr) error {
	return b.put(Scope{Peer: peer, Key: key}, id, EncodeServerCorr(c))
}

func (b *Bank) put(scope Scope, id uint64, blob []byte) error {
	st := b.store()
	if st == nil {
		return fmt.Errorf("bank: closed or no durable store")
	}
	return st.Append(scope, id, blob)
}

// AcquirePeer draws (and durably claims) the oldest client half paired
// with the server identified by peer. The returned id is the correlation
// id the client announces in-band; the server looks the matching half up
// under the client's own peer id via ClaimPeer. ok is false when the
// pool is dry — callers fall back to the inline offline phase or fail
// fast, never wait.
func (b *Bank) AcquirePeer(peer PeerID, key Key) (id uint64, clientHalf *core.ClientCorr, ok bool) {
	st := b.store()
	if st == nil {
		b.observe(Event{Kind: "peer-miss", Key: key})
		return 0, nil, false
	}
	scope := Scope{Peer: peer, Key: key}
	for {
		id, blob, ok, err := st.Draw(scope)
		if err != nil || !ok {
			if err != nil {
				b.observe(Event{Kind: "persist-claim-drop", Key: key, Err: err})
			}
			b.observe(Event{Kind: "peer-miss", Key: key})
			return 0, nil, false
		}
		c, derr := DecodeClientCorr(blob)
		if derr != nil {
			// Already claimed; just skip it and try the next record.
			b.observe(Event{Kind: "persist-decode-error", Key: key, Err: derr})
			continue
		}
		b.observe(Event{Kind: "peer-hit", Key: key})
		return id, c, true
	}
}

// ClaimPeer durably claims the server half stored under the announcing
// client's peer id and the announced correlation id. Single-use: the
// claim journal entry lands before the half is returned, so the same id
// can never back two online phases even across SIGKILL.
func (b *Bank) ClaimPeer(peer PeerID, id uint64, key Key) (serverHalf *core.ServerCorr, ok bool) {
	st := b.store()
	if st == nil {
		b.observe(Event{Kind: "peer-claim-miss", Key: key})
		return nil, false
	}
	blob, ok, err := st.ClaimByID(Scope{Peer: peer, Key: key}, id)
	if err != nil || !ok {
		if err != nil {
			b.observe(Event{Kind: "persist-claim-drop", Key: key, Err: err})
		}
		b.observe(Event{Kind: "peer-claim-miss", Key: key})
		return nil, false
	}
	c, derr := DecodeServerCorr(blob)
	if derr != nil {
		b.observe(Event{Kind: "persist-decode-error", Key: key, Err: derr})
		b.observe(Event{Kind: "peer-claim-miss", Key: key})
		return nil, false
	}
	b.observe(Event{Kind: "peer-claim", Key: key})
	return c, true
}

// PeerDepth returns the number of unclaimed halves stored under the
// (peer, key) pool — the replenisher's watermark input.
func (b *Bank) PeerDepth(peer PeerID, key Key) int {
	st := b.store()
	if st == nil {
		return 0
	}
	return st.Depth(Scope{Peer: peer, Key: key})
}

// ModelDepth returns the number of unclaimed halves this party holds for
// the model across every peer, ring width, batch size and backend — the
// serving runtime's admission input.
func (b *Bank) ModelDepth(model string) int {
	st := b.store()
	if st == nil {
		return 0
	}
	n := 0
	for _, scope := range st.Scopes() {
		if scope.Key.Model == model {
			n += st.Depth(scope)
		}
	}
	return n
}

func (b *Bank) observe(ev Event) {
	if b.opts.Observer != nil {
		b.opts.Observer.BankEvent(ev)
	}
}
