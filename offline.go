package abnn2

// Offline sessions: a client/server pair runs the real two-party offline
// protocol over its connection ahead of need and each party durably
// stores its own half of every correlation, keyed by the peer it
// generated with. This is the only way correlations are provisioned: the
// material is exactly what a live offline phase produces, because it IS
// a live offline phase, just run early. Later online sessions announce a
// stored correlation id (plus the client's peer id) and skip the offline
// phase entirely. A session configured with a Plan generates under the
// plan's per-layer schedule into the plan's pools.
//
// Wire protocol, after the serve-layer offline handshake, all little-
// endian, one correlation per round trip:
//
//	client → server  'R' | u64 id | u32 batch    request one correlation
//	server → client  'G' | u64 id                accepted: both sides now
//	                                             run the offline protocol
//	server → client  'N' | u64 id                refused (pool at capacity,
//	                                             duplicate id, store error)
//	server → client  'A' | u64 id                server half persisted
//	client → server  'D'                         done, close cleanly
//
// The decision round ('G'/'N') precedes generation so a refused request
// costs one round trip, not an offline phase. The server persists before
// acking; a client that crashes between 'A' and its own persist leaves
// an orphaned server half, which is never claimable and costs only disk.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"abnn2/internal/bank"
	"abnn2/internal/core"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// offlineSessionTag is the OT session tag of offline sessions, distinct
// from the live session tags.
const offlineSessionTag = 0xBC

const (
	offlineReq  = 'R'
	offlineGo   = 'G'
	offlineAck  = 'A'
	offlineNak  = 'N'
	offlineDone = 'D'
)

// ServeOfflineSession runs the server side of an offline-replenishment
// session until the client sends done or hangs up. Every generated
// server half is persisted under the client's peer id before it is
// acknowledged; cfg.Bank is required. cfg.Plan, when set, must be the
// plan the client replenishes under. Returns nil on a clean client
// shutdown.
func ServeOfflineSession(ctx context.Context, conn Conn, model *QuantizedModel, cfg Config, clientPeer BankPeerID) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.Bank == nil {
		return fmt.Errorf("abnn2: offline sessions require Config.Bank")
	}
	arch := model.Arch()
	sched, backend, err := cfg.planSchedule(arch, 1)
	if err != nil {
		return err
	}
	b := cfg.Bank
	sc := newSessionConn(ctx, conn, cfg.RoundTimeout, cfg.flightFunc("server"))
	defer sc.release()
	tr := cfg.tracer(sc, "server")
	scheme := model.qm.Layers[0].Scheme
	p := core.Params{Ring: ring.New(cfg.ringBits()), Scheme: scheme, Workers: cfg.Workers, Trace: tr,
		MiniONNBits: cfg.MiniONNKeyBits}
	modelID, err := bank.ModelID(model.qm)
	if err != nil {
		return err
	}
	sp := tr.Start("setup")
	strip, err := guardVal("offline session setup", func() (*core.ServerTriplets, error) {
		return core.NewServerTripletsSeeded(sc, p, offlineSessionTag, cfg.rng())
	})
	sp.End(err)
	if err != nil {
		return err
	}
	keyBase := BankKey{Model: modelID, Scheme: scheme.Name(), RingBits: cfg.ringBits(), Backend: backend}
	for {
		raw, err := sc.recvIdle()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if len(raw) == 1 && raw[0] == offlineDone {
			return nil
		}
		if len(raw) != 13 || raw[0] != offlineReq {
			return fmt.Errorf("abnn2: malformed offline request")
		}
		id := binary.LittleEndian.Uint64(raw[1:9])
		batch := int(binary.LittleEndian.Uint32(raw[9:13]))
		if batch <= 0 || batch > core.MaxBatch {
			return fmt.Errorf("abnn2: offline request batch %d out of range", batch)
		}
		if cfg.Plan != nil {
			if err := cfg.Plan.Validate(arch, batch); err != nil {
				return fmt.Errorf("abnn2: %w", err)
			}
		}
		key := keyBase
		key.Batch = batch
		// Refuse before generating: a full pool or reused id costs the
		// client one round trip, not a wasted offline phase.
		if b.PeerDepth(clientPeer, key) >= b.Capacity() {
			if err := sendOfflineReply(sc, offlineNak, id); err != nil {
				return err
			}
			continue
		}
		if err := sendOfflineReply(sc, offlineGo, id); err != nil {
			return err
		}
		osp := tr.Start("offline-replenish").SetBatch(batch)
		corr, err := guardVal("offline replenish", func() (*core.ServerCorr, error) {
			return strip.OfflineCorrSched(model.qm, batch, sched)
		})
		osp.End(err)
		if err != nil {
			// The two sides are mid-protocol; there is no resync point.
			return err
		}
		status := byte(offlineAck)
		if perr := b.PutPeerServer(clientPeer, key, id, corr); perr != nil {
			status = offlineNak
		}
		if err := sendOfflineReply(sc, status, id); err != nil {
			return err
		}
	}
}

func sendOfflineReply(sc *sessionConn, status byte, id uint64) error {
	msg := make([]byte, 9)
	msg[0] = status
	binary.LittleEndian.PutUint64(msg[1:], id)
	return sc.Send(msg)
}

// ReplenishSession runs the client side of an offline session over an
// admitted offline connection: it requests up to n correlations of the
// given batch size and durably stores every acknowledged client half
// under serverPeer. cfg.BankModel must be the server's bank id (from the
// offline handshake) so both parties key the same pool; cfg.Plan, when
// set, selects the plan pool and schedule. Correlation ids are drawn
// from the session's randomness, so a seeded session is reproducible.
// Returns how many correlations landed; fewer than n with a nil error
// means the server's pool for this peer is at capacity.
func ReplenishSession(ctx context.Context, conn Conn, arch Arch, cfg Config, serverPeer BankPeerID, batch, n int) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if cfg.Bank == nil || cfg.BankModel == "" {
		return 0, fmt.Errorf("abnn2: replenish sessions require Config.Bank and Config.BankModel")
	}
	if batch <= 0 || batch > core.MaxBatch {
		return 0, fmt.Errorf("abnn2: batch size %d out of range", batch)
	}
	sched, backend, err := cfg.planSchedule(arch, batch)
	if err != nil {
		return 0, err
	}
	b := cfg.Bank
	scheme, err := quant.Parse(arch.SchemeName)
	if err != nil {
		return 0, fmt.Errorf("abnn2: architecture scheme: %w", err)
	}
	sc := newSessionConn(ctx, conn, cfg.RoundTimeout, cfg.flightFunc("client"))
	defer sc.release()
	tr := cfg.tracer(sc, "client")
	p := core.Params{Ring: ring.New(cfg.ringBits()), Scheme: scheme, Workers: cfg.Workers, Trace: tr,
		MiniONNBits: cfg.MiniONNKeyBits}
	root := cfg.rng()
	trng, shares, ids := root.Child("triplets"), root.Child("shares"), root.Child("ids")
	sp := tr.Start("setup")
	ctrip, err := guardVal("replenish setup", func() (*core.ClientTriplets, error) {
		return core.NewClientTriplets(sc, p, offlineSessionTag, trng)
	})
	sp.End(err)
	if err != nil {
		return 0, err
	}
	key := BankKey{Model: cfg.BankModel, Scheme: arch.SchemeName, RingBits: cfg.ringBits(),
		Batch: batch, Backend: backend}
	done := func(got int) (int, error) {
		// Best-effort: the server also treats a hangup as a clean end.
		_ = sc.Send([]byte{offlineDone})
		return got, nil
	}
	got := 0
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			_, _ = done(got)
			return got, ctx.Err()
		}
		id := bank.NewCorrID(ids)
		req := make([]byte, 13)
		req[0] = offlineReq
		binary.LittleEndian.PutUint64(req[1:9], id)
		binary.LittleEndian.PutUint32(req[9:13], uint32(batch))
		if err := sc.Send(req); err != nil {
			return got, err
		}
		status, err := recvOfflineReply(sc, id)
		if err != nil {
			return got, err
		}
		if status == offlineNak {
			return done(got) // pool at capacity: not an error, just enough
		}
		if status != offlineGo {
			return got, fmt.Errorf("abnn2: unexpected offline reply %#x", status)
		}
		osp := tr.Start("offline-replenish").SetBatch(batch)
		corr, err := guardVal("replenish offline", func() (*core.ClientCorr, error) {
			return ctrip.OfflineCorrSched(arch, shares, batch, sched)
		})
		osp.End(err)
		if err != nil {
			return got, err
		}
		status, err = recvOfflineReply(sc, id)
		if err != nil {
			return got, err
		}
		if status == offlineAck {
			if err := b.PutPeerClient(serverPeer, key, id, corr); err != nil {
				return got, err
			}
			got++
		}
		// A nak after generation: the server failed to persist; drop our
		// half and keep going — the streams stay in lockstep either way.
	}
	return done(got)
}

func recvOfflineReply(sc *sessionConn, wantID uint64) (byte, error) {
	raw, err := sc.Recv()
	if err != nil {
		return 0, err
	}
	if len(raw) != 9 {
		return 0, fmt.Errorf("abnn2: malformed offline reply")
	}
	if got := binary.LittleEndian.Uint64(raw[1:9]); got != wantID {
		return 0, fmt.Errorf("abnn2: offline reply for id %d, want %d", got, wantID)
	}
	return raw[0], nil
}
