package core

import (
	"encoding/binary"
	"fmt"
)

// The batch announcement is the client's opening flight of every batch:
// one versioned, strictly parsed frame telling the server the batch
// size, the output finish, where the offline material comes from, and
// the per-layer plan the batch runs under. Little-endian:
//
//	u8 version | u8 flags | u32 batch
//	[u64 correlation id | 16-byte client peer id]   when flags&AnnounceBanked
//	[u16 plan length | plan bytes]                  when flags&AnnouncePlan
//
// The plan bytes are opaque here (the facade parses them with
// plan.Unmarshal); this codec only frames them. Every field is public
// protocol state chosen by configuration, never by inputs.

// AnnounceVersion is the only announcement version this codec speaks.
const AnnounceVersion = 1

// Announcement flag bits. Any other bit is rejected.
const (
	AnnounceArgmax = 0x01 // private argmax finish
	AnnounceBanked = 0x02 // provisioned from a peer-paired stored correlation
	AnnouncePlan   = 0x04 // a per-layer plan frame rides inline

	announceFlags = AnnounceArgmax | AnnounceBanked | AnnouncePlan
)

// MaxBatch bounds an announced batch size.
const MaxBatch = 1 << 20

// MaxAnnouncedPlan bounds the inline plan frame (its u16 length field).
const MaxAnnouncedPlan = 0xFFFF

// Announcement is one decoded batch announcement.
type Announcement struct {
	Batch  int
	Argmax bool
	// Banked announces that both parties install stored halves of the
	// correlation CorrID instead of running the offline phase; Peer is
	// the announcing client's durable identity, under which the server
	// stored its half.
	Banked bool
	CorrID uint64
	Peer   [16]byte
	// Plan is the marshalled per-layer plan; nil announces none.
	Plan []byte
}

// Marshal encodes the announcement. The caller keeps Batch within
// [1, MaxBatch] and Plan within MaxAnnouncedPlan bytes.
func (a Announcement) Marshal() []byte {
	var flags byte
	if a.Argmax {
		flags |= AnnounceArgmax
	}
	if a.Banked {
		flags |= AnnounceBanked
	}
	if a.Plan != nil {
		flags |= AnnouncePlan
	}
	out := make([]byte, 0, 6+24+2+len(a.Plan))
	out = append(out, AnnounceVersion, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(a.Batch))
	if a.Banked {
		out = binary.LittleEndian.AppendUint64(out, a.CorrID)
		out = append(out, a.Peer[:]...)
	}
	if a.Plan != nil {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(a.Plan)))
		out = append(out, a.Plan...)
	}
	return out
}

// UnmarshalAnnouncement strictly parses an announcement: an unknown
// version or flag bit, a batch size outside [1, MaxBatch], a frame
// shorter than its flags require, an empty or over-long plan, and
// trailing bytes are all rejected.
func UnmarshalAnnouncement(b []byte) (Announcement, error) {
	var a Announcement
	if len(b) < 6 {
		return a, fmt.Errorf("core: batch announcement of %d bytes, want at least 6", len(b))
	}
	if b[0] != AnnounceVersion {
		return a, fmt.Errorf("core: batch announcement version %d, want %d", b[0], AnnounceVersion)
	}
	flags := b[1]
	if flags&^announceFlags != 0 {
		return a, fmt.Errorf("core: unknown batch announcement flags %#x", flags)
	}
	a.Batch = int(binary.LittleEndian.Uint32(b[2:6]))
	if a.Batch <= 0 || a.Batch > MaxBatch {
		return a, fmt.Errorf("core: batch size %d out of range", a.Batch)
	}
	a.Argmax = flags&AnnounceArgmax != 0
	rest := b[6:]
	if flags&AnnounceBanked != 0 {
		if len(rest) < 24 {
			return a, fmt.Errorf("core: banked announcement truncated")
		}
		a.Banked = true
		a.CorrID = binary.LittleEndian.Uint64(rest)
		copy(a.Peer[:], rest[8:24])
		rest = rest[24:]
	}
	if flags&AnnouncePlan != 0 {
		if len(rest) < 2 {
			return a, fmt.Errorf("core: plan length truncated")
		}
		n := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if n == 0 || n > len(rest) {
			return a, fmt.Errorf("core: plan length %d with %d bytes left", n, len(rest))
		}
		a.Plan = rest[:n:n]
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return a, fmt.Errorf("core: %d trailing bytes after batch announcement", len(rest))
	}
	return a, nil
}
