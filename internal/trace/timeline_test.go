package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Synthetic two-party session used across the timeline tests. All times
// are expressed on the "true" server clock; client stamps are then
// shifted by -skew (the client's clock runs behind), so BuildTimeline
// must recover offset == +skew to line the parties back up.
//
// Server-true schedule (session 7, symmetric 5ms transit):
//
//	 0..10ms  client dial/handshake (span "dial")     -> queue
//	10ms      client send #1 (40 B)
//	10..15ms  flight in transit                        -> wire
//	15ms      server recv #1
//	15..20ms  server claims a half ("bank-peer")       -> bank-wait
//	20..25ms  server computes                          -> compute
//	25ms      server send #1 (100 B)
//	25..30ms  flight in transit                        -> wire
//	30ms      client recv #1
//	30..50ms  client computes (span "online")          -> compute
//	50ms      client send #2 (8 B)
//	50..55ms  flight in transit                        -> wire
//	55ms      server recv #2, session ends
func twoPartySession(skew time.Duration) (spans []Span, flights []Flight) {
	base := time.Unix(1000, 0)
	srv := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	cli := func(ms int) time.Time { return srv(ms).Add(-skew) }

	flights = []Flight{
		{Party: "client", Session: 7, Dir: DirSend, Seq: 1, Bytes: 40, Wall: cli(10)},
		{Party: "server", Session: 7, Dir: DirRecv, Seq: 1, Bytes: 40, Wall: srv(15)},
		{Party: "server", Session: 7, Dir: DirSend, Seq: 1, Bytes: 100, Wall: srv(25)},
		{Party: "client", Session: 7, Dir: DirRecv, Seq: 1, Bytes: 100, Wall: cli(30)},
		{Party: "client", Session: 7, Dir: DirSend, Seq: 2, Bytes: 8, Wall: cli(50)},
		{Party: "server", Session: 7, Dir: DirRecv, Seq: 2, Bytes: 8, Wall: srv(55)},
	}
	spans = []Span{
		{ID: 100, Party: "client", Session: 7, Name: "dial", Layer: -1,
			Start: cli(0), Dur: 10 * time.Millisecond},
		{ID: 101, Party: "client", Session: 7, Name: "online", Layer: -1,
			Start: cli(30), Dur: 20 * time.Millisecond},
		{ID: 200, Party: "server", Session: 7, Name: "bank-peer", Layer: -1,
			Start: srv(15), Dur: 5 * time.Millisecond},
	}
	return spans, flights
}

func TestEstimateOffsetRecoversSkew(t *testing.T) {
	const skew = 150 * time.Millisecond
	_, flights := twoPartySession(skew)
	var cf, sf []Flight
	for _, f := range flights {
		if f.Party == "client" {
			cf = append(cf, f)
		} else {
			sf = append(sf, f)
		}
	}
	offset, bound, pairs, err := EstimateOffset(cf, sf)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric 5ms transit: the min filter recovers the skew exactly,
	// with a bound equal to the one-way delay.
	if offset != skew {
		t.Errorf("offset = %v, want %v", offset, skew)
	}
	if bound != 5*time.Millisecond {
		t.Errorf("bound = %v, want 5ms", bound)
	}
	if pairs != 3 {
		t.Errorf("pairs = %d, want 3", pairs)
	}
}

func TestEstimateOffsetNeedsBothDirections(t *testing.T) {
	base := time.Unix(1000, 0)
	cf := []Flight{{Party: "client", Dir: DirSend, Seq: 1, Bytes: 4, Wall: base}}
	sf := []Flight{{Party: "server", Dir: DirRecv, Seq: 1, Bytes: 4, Wall: base.Add(time.Millisecond)}}
	if _, _, _, err := EstimateOffset(cf, sf); err == nil {
		t.Fatal("one-directional flight set estimated an offset")
	}
}

func TestEstimateOffsetSkipsMismatchedBytes(t *testing.T) {
	const skew = 20 * time.Millisecond
	_, flights := twoPartySession(skew)
	// Corrupt one pair: a truncated dump whose sizes disagree must not
	// poison the estimate (flight c2s #1 would otherwise set the min).
	var cf, sf []Flight
	for _, f := range flights {
		if f.Party == "client" {
			if f.Dir == DirSend && f.Seq == 1 {
				f.Bytes = 9999
			}
			cf = append(cf, f)
		} else {
			sf = append(sf, f)
		}
	}
	offset, _, pairs, err := EstimateOffset(cf, sf)
	if err != nil {
		t.Fatal(err)
	}
	if offset != skew {
		t.Errorf("offset = %v, want %v", offset, skew)
	}
	if pairs != 2 {
		t.Errorf("pairs = %d, want 2 (mismatched pair skipped)", pairs)
	}
}

func TestBuildTimelinePartition(t *testing.T) {
	const skew = 150 * time.Millisecond
	spans, flights := twoPartySession(skew)
	tl, err := BuildTimeline(7, spans, flights)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Offset != skew {
		t.Errorf("offset = %v, want %v", tl.Offset, skew)
	}
	if tl.Wall != 55*time.Millisecond {
		t.Errorf("wall = %v, want 55ms", tl.Wall)
	}
	if err := tl.Check(0.01); err != nil {
		t.Fatalf("partition: %v", err)
	}
	want := map[string]time.Duration{
		ClassQueue:    10 * time.Millisecond, // dial span
		ClassWire:     15 * time.Millisecond, // three 5ms transits
		ClassBankWait: 5 * time.Millisecond,  // server bank span
		ClassCompute:  25 * time.Millisecond, // 20..25 server + 30..50 client
	}
	for class, d := range want {
		if got := tl.ByClass[class]; got != d {
			t.Errorf("ByClass[%s] = %v, want %v", class, got, d)
		}
	}
	// Attribution carries phase names: the client compute interval must
	// be attributed to its covering "online" span.
	foundOnline := false
	for _, a := range tl.Attr {
		if a.Class == ClassCompute && a.Party == "client" && a.Phase == "online" {
			foundOnline = true
			if a.Dur != 20*time.Millisecond {
				t.Errorf("online compute = %v, want 20ms", a.Dur)
			}
		}
	}
	if !foundOnline {
		t.Error("client online compute missing from attribution")
	}
}

func TestBuildTimelineRequiresBothParties(t *testing.T) {
	spans, flights := twoPartySession(0)
	var serverOnly []Flight
	for _, f := range flights {
		if f.Party == "server" {
			serverOnly = append(serverOnly, f)
		}
	}
	if _, err := BuildTimeline(7, spans, serverOnly); err == nil {
		t.Fatal("server-only dump built a timeline")
	}
}

func TestTimelineCheckCatchesGaps(t *testing.T) {
	spans, flights := twoPartySession(0)
	tl, err := BuildTimeline(7, spans, flights)
	if err != nil {
		t.Fatal(err)
	}
	// Drop an interval: Check must notice the wall time no longer tiles.
	tl.Intervals = tl.Intervals[1:]
	if err := tl.Check(0.01); err == nil {
		t.Fatal("Check accepted a holed partition")
	}
}

func TestSessionsListsOnlyTwoPartySessions(t *testing.T) {
	_, flights := twoPartySession(0)
	// Session 9 has only client flights: not reconcilable.
	flights = append(flights, Flight{Party: "client", Session: 9, Dir: DirSend, Seq: 1, Bytes: 1, Wall: time.Unix(1000, 0)})
	ids := Sessions(flights)
	if len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("Sessions = %v, want [7]", ids)
	}
}

func TestFormatTimeline(t *testing.T) {
	spans, flights := twoPartySession(30 * time.Millisecond)
	tl, err := BuildTimeline(7, spans, flights)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTimeline(tl)
	for _, want := range []string{"session 7", "clock offset", ClassCompute, ClassWire, ClassQueue, ClassBankWait, "online", "bank-peer", "dial"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestTimelineThroughJSONL round-trips the merged dump through the JSONL
// writer/reader pair, as abnn2-inspect -timeline does with two -trace-out
// files.
func TestTimelineThroughJSONL(t *testing.T) {
	const skew = 42 * time.Millisecond
	spans, flights := twoPartySession(skew)
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, s := range spans {
		sink.Emit(s)
	}
	for _, f := range flights {
		sink.EmitFlight(f)
	}
	gotSpans, gotFlights, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSpans) != len(spans) || len(gotFlights) != len(flights) {
		t.Fatalf("round trip: %d spans, %d flights (want %d, %d)",
			len(gotSpans), len(gotFlights), len(spans), len(flights))
	}
	tl, err := BuildTimeline(7, gotSpans, gotFlights)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Offset != skew {
		t.Errorf("offset after round trip = %v, want %v", tl.Offset, skew)
	}
	if err := tl.Check(0.01); err != nil {
		t.Fatal(err)
	}
}
