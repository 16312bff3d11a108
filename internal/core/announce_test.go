package core

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalAnnouncement: the batch announcement is the first
// attacker-shaped flight of every batch, so arbitrary input must never
// panic the parser, and anything accepted must re-marshal to exactly
// the accepted bytes — the encoding is canonical and trailing bytes are
// rejected, so the round trip is an identity.
func FuzzUnmarshalAnnouncement(f *testing.F) {
	f.Add(Announcement{Batch: 1}.Marshal())
	f.Add(Announcement{Batch: 32, Argmax: true, Banked: true, CorrID: 7, Plan: []byte("ABP1")}.Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalAnnouncement(data)
		if err != nil {
			return
		}
		if re := a.Marshal(); !bytes.Equal(re, data) {
			t.Fatalf("accepted announcement does not round-trip: got %x, want %x", re, data)
		}
	})
}

func TestAnnouncementRoundTrip(t *testing.T) {
	peer := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	for _, a := range []Announcement{
		{Batch: 1},
		{Batch: MaxBatch, Argmax: true},
		{Batch: 3, Banked: true, CorrID: 0xFEEDFACE, Peer: peer},
		{Batch: 2, Plan: []byte("ABP1\x01\x00\x00\x00")},
		{Batch: 4, Argmax: true, Banked: true, CorrID: 1, Peer: peer, Plan: []byte{9}},
	} {
		raw := a.Marshal()
		got, err := UnmarshalAnnouncement(raw)
		if err != nil {
			t.Fatalf("%+v: %v", a, err)
		}
		if got.Batch != a.Batch || got.Argmax != a.Argmax || got.Banked != a.Banked ||
			got.CorrID != a.CorrID || got.Peer != a.Peer || !bytes.Equal(got.Plan, a.Plan) {
			t.Fatalf("round trip: got %+v, want %+v", got, a)
		}
	}
	if n := len(Announcement{Batch: 1}.Marshal()); n != 6 {
		t.Fatalf("inline announcement is %d bytes, want 6", n)
	}
}

func TestAnnouncementRejects(t *testing.T) {
	good := Announcement{Batch: 2, Banked: true, CorrID: 5, Plan: []byte("plan")}.Marshal()
	badVersion := append([]byte{}, good...)
	badVersion[0] = 2
	badFlags := append([]byte{}, good...)
	badFlags[1] |= 0x80
	zeroBatch := Announcement{Batch: 1}.Marshal()
	zeroBatch[2] = 0
	planPastEnd := append([]byte{}, good...)
	planPastEnd[30] = 0xFF // low byte of the plan length
	emptyPlan := []byte{AnnounceVersion, AnnouncePlan, 1, 0, 0, 0, 0, 0}
	for name, raw := range map[string][]byte{
		"empty":         {},
		"bad-version":   badVersion,
		"unknown-flags": badFlags,
		"zero-batch":    zeroBatch,
		"over-batch":    Announcement{Batch: MaxBatch + 1}.Marshal(),
		"torn-banked":   good[:20],
		"torn-plan-len": good[:31],
		"plan-past-end": planPastEnd,
		"empty-plan":    emptyPlan,
		"trailing":      append(append([]byte{}, good...), 0),
		"over-long":     append(Announcement{Batch: 1}.Marshal(), make([]byte, 24)...),
	} {
		if _, err := UnmarshalAnnouncement(raw); err == nil {
			t.Errorf("%s: accepted %x", name, raw)
		}
	}
}
