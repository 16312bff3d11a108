package trace

import (
	"strings"
	"testing"
	"time"
)

// mergedTwoPartyDump models the span set of one session seen from both
// endpoints merged into one slice (the input of abnn2-inspect after
// concatenating two -trace-out files): clock-skewed start stamps, a
// client that dialed twice (first attempt shed), and a server that
// degraded from banked to inline offline provisioning mid-session.
func mergedTwoPartyDump() []Span {
	srv := time.Unix(2000, 0)
	cli := srv.Add(-90 * time.Millisecond) // client clock runs behind
	ms := time.Millisecond
	return []Span{
		// Client, first dial attempt: shed by the server, retried.
		{ID: 1, Party: "client", Session: 0, Name: "dial", Layer: -1,
			Start: cli, Dur: 12 * ms, Err: "serve: rejected (saturated, retry after 100ms)"},
		// Client, admitted second attempt.
		{ID: 2, Party: "client", Session: 5, Name: "dial", Layer: -1,
			Start: cli.Add(120 * ms), Dur: 9 * ms},
		{ID: 3, Party: "client", Session: 5, Name: "batch", Layer: -1, Batch: 2,
			Start: cli.Add(130 * ms), Dur: 80 * ms, BytesSent: 4096, BytesRecvd: 1024, Messages: 6, Flights: 6},
		{ID: 4, Parent: 3, Party: "client", Session: 5, Name: "online", Layer: -1,
			Start: cli.Add(150 * ms), Dur: 60 * ms, BytesSent: 3000, BytesRecvd: 900},
		{ID: 5, Parent: 4, Party: "client", Session: 5, Name: "matmul", Layer: 0,
			Start: cli.Add(150 * ms), Dur: 25 * ms, BytesSent: 2000},
		{ID: 6, Parent: 4, Party: "client", Session: 5, Name: "relu", Layer: 0,
			Start: cli.Add(175 * ms), Dur: 20 * ms, BytesRecvd: 800},

		// Server: first batch drew from the bank, second found the pool
		// dry and fell back to the inline offline phase.
		{ID: 10, Party: "server", Session: 5, Name: "batch", Layer: -1, Batch: 2,
			Start: srv.Add(130 * ms), Dur: 82 * ms, BytesSent: 1024, BytesRecvd: 4096, Messages: 6, Flights: 6},
		{ID: 11, Parent: 10, Party: "server", Session: 5, Name: "bank-peer", Layer: -1,
			Start: srv.Add(131 * ms), Dur: 3 * ms},
		{ID: 12, Party: "server", Session: 5, Name: "batch", Layer: -1, Batch: 2,
			Start: srv.Add(220 * ms), Dur: 95 * ms, BytesSent: 1024, BytesRecvd: 4096, Messages: 8, Flights: 8},
		{ID: 13, Parent: 12, Party: "server", Session: 5, Name: "offline", Layer: -1,
			Start: srv.Add(221 * ms), Dur: 40 * ms, BytesSent: 512, BytesRecvd: 2048},
	}
}

func TestSummarizeMergedTwoPartyDump(t *testing.T) {
	stats := Summarize(mergedTwoPartyDump())
	find := func(party, name string, layer int) (PhaseStat, bool) {
		for _, p := range stats {
			if p.Party == party && p.Name == name && p.Layer == layer {
				return p, true
			}
		}
		return PhaseStat{}, false
	}

	// Both dial attempts aggregate into one client row — retried dials
	// must not fork per-session groups.
	dial, ok := find("client", "dial", -1)
	if !ok {
		t.Fatal("client dial row missing")
	}
	if dial.Count != 2 {
		t.Errorf("dial count = %d, want 2 (shed attempt + admitted retry)", dial.Count)
	}
	if dial.Dur != 21*time.Millisecond {
		t.Errorf("dial dur = %v, want 21ms", dial.Dur)
	}

	// The degraded session contributes both a bank row (first batch) and
	// an inline offline row (second batch) on the server.
	if bank, ok := find("server", "bank-peer", -1); !ok || bank.Count != 1 {
		t.Errorf("server bank row = %+v (ok=%v), want count 1", bank, ok)
	}
	if off, ok := find("server", "offline", -1); !ok || off.Count != 1 {
		t.Errorf("server offline row = %+v (ok=%v), want count 1", off, ok)
	}

	// Server batches aggregate across the banked and degraded runs.
	sb, ok := find("server", "batch", -1)
	if !ok {
		t.Fatal("server batch row missing")
	}
	if sb.Count != 2 || sb.BytesRecvd != 8192 {
		t.Errorf("server batch = count %d recvd %d, want count 2 recvd 8192", sb.Count, sb.BytesRecvd)
	}

	// Parties stay separate even for same-named phases, and the order
	// groups parties together (clients first: "client" < "server").
	if stats[0].Party != "client" {
		t.Errorf("first group party = %q, want client", stats[0].Party)
	}
	if _, ok := find("client", "batch", -1); !ok {
		t.Error("client batch row missing")
	}
}

func TestSummarizeLeavesPerLayer(t *testing.T) {
	leaves := Leaves(mergedTwoPartyDump())
	stats := Summarize(leaves)
	for _, p := range stats {
		if p.Name == "online" || (p.Name == "batch" && p.Party == "client") {
			t.Errorf("non-leaf %s/%s in leaf summary", p.Party, p.Name)
		}
	}
	foundMatmul := false
	for _, p := range stats {
		if p.Name == "matmul" && p.Layer == 0 && p.Party == "client" {
			foundMatmul = true
		}
	}
	if !foundMatmul {
		t.Error("per-layer matmul row missing from leaf summary")
	}
}

func TestFormatTableMergedDump(t *testing.T) {
	out := FormatTable(Summarize(mergedTwoPartyDump()))
	for _, want := range []string{"party", "client", "server", "dial", "bank-peer", "offline", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
	// The totals row must sum both parties' message counts (6+6+8).
	if !strings.Contains(out, "20") {
		t.Errorf("table totals lack the merged message count:\n%s", out)
	}
}
