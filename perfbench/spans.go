package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"abnn2"
)

// span is one interval on a timeline: the benchmark's own spans around
// calls into a layer's public function (party "bench"), and the phase
// spans the program emits through Config.Trace (party "client" or
// "server").
type span struct {
	party   string
	name    string
	layer   int
	session uint64
	start   time.Time
	dur     time.Duration
	sent    int64 // bytes the party sent; for own spans, wire bytes both ways
}

func (s span) end() time.Time { return s.start.Add(s.dur) }

// recorder keeps spans in memory until the run ends. It is also the
// program's trace sink. A nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// Emit implements abnn2.TraceSink.
func (r *recorder) Emit(s abnn2.TraceSpan) {
	r.add(span{party: s.Party, name: s.Name, layer: s.Layer, session: s.Session,
		start: s.Start, dur: s.Dur, sent: s.BytesSent})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// ownSpan is an open span of the benchmark's own.
type ownSpan struct {
	r     *recorder
	name  string
	start time.Time
}

func (r *recorder) start(name string) *ownSpan {
	if r == nil {
		return nil
	}
	return &ownSpan{r: r, name: name, start: time.Now()}
}

func (s *ownSpan) end() { s.endBytes(0) }

func (s *ownSpan) endBytes(n int64) {
	if s != nil {
		s.r.add(span{party: "bench", name: s.name, layer: -1, start: s.start,
			dur: time.Since(s.start), sent: n})
	}
}

// containers are the spans whose self time is not attributed to any
// layer: the request itself, the Classify call, and the program's batch
// and online phases, whose work is all in their children.
var containers = map[string]bool{"request": true, "session.classify": true, "batch": true, "online": true}

// node is a span placed in its timeline's containment tree.
type node struct {
	span
	self      time.Duration // duration minus the time its children cover
	inRequest bool          // starts inside one of the benchmark's request spans
}

// timeline groups spans that run one after another on one goroutine: the
// benchmark's own spans and the client's phase spans share the
// benchmark's goroutine; each server session runs on its own.
func timeline(s span) string {
	if s.party == "server" {
		return fmt.Sprintf("server/%d", s.session)
	}
	return "client"
}

// analyze nests every span under the innermost span of its timeline that
// contains it and computes self times.
func analyze(spans []span) []node {
	byLine := map[string][]node{}
	for _, s := range spans {
		if s.name == "idle" {
			// A server's wait for the client's next batch is no layer's
			// work, and on a persistent session it straddles requests.
			continue
		}
		k := timeline(s)
		byLine[k] = append(byLine[k], node{span: s, self: s.dur})
	}
	var requests []span
	for _, s := range spans {
		if s.party == "bench" && s.name == "request" {
			requests = append(requests, s)
		}
	}
	sort.Slice(requests, func(i, j int) bool { return requests[i].start.Before(requests[j].start) })
	var out []node
	for _, nodes := range byLine {
		sort.SliceStable(nodes, func(i, j int) bool {
			if !nodes[i].start.Equal(nodes[j].start) {
				return nodes[i].start.Before(nodes[j].start)
			}
			return nodes[i].dur > nodes[j].dur
		})
		var stack []int
		for i := range nodes {
			for len(stack) > 0 && !contains(nodes[stack[len(stack)-1]].span, nodes[i].span) {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				nodes[stack[len(stack)-1]].self -= nodes[i].dur
			}
			stack = append(stack, i)
		}
		for i := range nodes {
			if nodes[i].self < 0 {
				nodes[i].self = 0
			}
			nodes[i].inRequest = insideAny(requests, nodes[i].start)
		}
		out = append(out, nodes...)
	}
	return out
}

func contains(outer, inner span) bool {
	return !inner.start.Before(outer.start) && !inner.end().After(outer.end())
}

// insideAny reports whether t falls in one of the sorted request spans.
func insideAny(requests []span, t time.Time) bool {
	i := sort.Search(len(requests), func(i int) bool { return requests[i].end().After(t) || requests[i].end().Equal(t) })
	return i < len(requests) && !t.Before(requests[i].start)
}

// coverage is the share of request wall time that lands in a layer span
// rather than in the self time of a container, on the client timeline.
func coverage(nodes []node) float64 {
	var wall, gap time.Duration
	for _, n := range nodes {
		if !n.inRequest || n.party == "server" {
			continue
		}
		if n.party == "bench" && n.name == "request" {
			wall += n.dur
		}
		if containers[n.name] {
			gap += n.self
		}
	}
	if wall == 0 {
		return 0
	}
	return 100 * (1 - float64(gap)/float64(wall))
}

// selfRow is one line of the self-time table.
type selfRow struct {
	party, name string
	layer       int
	count       int
	total, self time.Duration
	sent        int64
}

// selfTable aggregates nodes by party, name and layer.
func selfTable(nodes []node, keep func(node) bool) []selfRow {
	idx := map[[3]string]*selfRow{}
	var rows []*selfRow
	for _, n := range nodes {
		if !keep(n) {
			continue
		}
		k := [3]string{n.party, n.name, fmt.Sprint(n.layer)}
		r := idx[k]
		if r == nil {
			r = &selfRow{party: n.party, name: n.name, layer: n.layer}
			idx[k] = r
			rows = append(rows, r)
		}
		r.count++
		r.total += n.dur
		r.self += n.self
		r.sent += n.sent
	}
	out := make([]selfRow, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].party != out[j].party {
			return out[i].party < out[j].party
		}
		return out[i].self > out[j].self
	})
	return out
}

// printSelfTable writes rows with times and bytes divided by per.
func printSelfTable(w io.Writer, title string, rows []selfRow, per float64) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-7s %-20s %5s %8s %11s %11s %11s\n", "party", "span", "layer", "count", "self_ms", "total_ms", "sent_MB")
	for _, r := range rows {
		layer := "-"
		if r.layer >= 0 {
			layer = fmt.Sprint(r.layer)
		}
		fmt.Fprintf(w, "  %-7s %-20s %5s %8.2f %11.3f %11.3f %11.4f\n", r.party, r.name, layer,
			float64(r.count)/per, ms(r.self)/per, ms(r.total)/per, float64(r.sent)/1e6/per)
	}
}

// spanQuery selects nodes by party, name and layer (-1 matches spans
// without a layer); an empty party matches both protocol parties.
type spanQuery struct {
	party, name string
	layer       int
}

func (q spanQuery) match(n node) bool {
	if q.party == "" {
		if n.party == "bench" {
			return false
		}
	} else if n.party != q.party {
		return false
	}
	return n.name == q.name && n.layer == q.layer
}

// sumSpans returns the total duration, sent bytes and count of the
// matching nodes; onlyRequests restricts them to the request path.
func sumSpans(nodes []node, q spanQuery, onlyRequests bool) (time.Duration, int64, int) {
	var d time.Duration
	var b int64
	var c int
	for _, n := range nodes {
		if (onlyRequests && !n.inRequest) || !q.match(n) {
			continue
		}
		d += n.dur
		b += n.sent
		c++
	}
	return d, b, c
}
