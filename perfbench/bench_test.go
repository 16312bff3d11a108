package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"abnn2"
	"abnn2/internal/transport"
)

// The self-tests run every workload for a one-second window: twice
// untraced (seeds 1 and 2) and once traced. Runs are shared between
// tests.

type declared struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

type runKey struct {
	workload string
	seed     uint64
	trace    bool
}

var (
	runsMu sync.Mutex
	runs   = map[runKey]*result{}
)

// shortRun runs one workload for one second, once per key.
func shortRun(t *testing.T, k runKey) *result {
	t.Helper()
	runsMu.Lock()
	defer runsMu.Unlock()
	if res, ok := runs[k]; ok {
		return res
	}
	o := options{workload: k.workload, seed: k.seed, window: time.Second, trace: k.trace, workDir: t.TempDir()}
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatalf("%+v: %v", k, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%+v: correct=%v attempted=%d failed=%d", k, res.Correct, res.Attempted, res.Failed)
	}
	runs[k] = res
	return res
}

// TestWorkloadsDeclared: the workload table and BENCHMARK.json agree.
func TestWorkloadsDeclared(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, benchmark runs %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestEmittedNamesDeclared: every metric a run emits has a well-formed
// name, is declared in BENCHMARK.json with the same unit, and every
// declared metric of the run's mode is emitted.
func TestEmittedNamesDeclared(t *testing.T) {
	d := loadDeclared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			list := d.EndToEnd
			if traced {
				list = d.PerLayer
			}
			for _, m := range list {
				want[m.Name] = m.Unit
			}
			res := shortRun(t, runKey{w.name, 1, traced})
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s trace=%v: malformed metric name %q", w.name, traced, name)
				}
				unit, ok := want[name]
				if !ok {
					t.Errorf("%s trace=%v: emitted %q is not declared", w.name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: %q has unit %q, declared %q", w.name, traced, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %q = %v", w.name, traced, name, m.Value)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: declared %q not emitted", w.name, traced, name)
				}
			}
		}
	}
}

// TestExactCountsSeedIndependent: byte and flight counts depend on the
// shapes, not on the inputs or on how many requests fit the window.
func TestExactCountsSeedIndependent(t *testing.T) {
	for _, w := range workloads {
		a := shortRun(t, runKey{w.name, 1, false})
		b := shortRun(t, runKey{w.name, 2, false})
		for _, name := range []string{"wire_mb_per_req", "flights_per_req", "offline_mb_per_corr"} {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s is %v with seed 1, %v with seed 2", w.name, name,
					a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// TestWANModel: wan_model_ms is the p50 plus the Table 3 WAN model
// applied to the request's measured bytes and flights.
func TestWANModel(t *testing.T) {
	for _, w := range workloads {
		res := shortRun(t, runKey{w.name, 1, false})
		m := res.Metrics
		wire := abnn2.Stats{
			BytesAB: int64(math.Round(m["wire_mb_per_req"].Value * 1e6)),
			Flights: int64(m["flights_per_req"].Value),
		}
		want := m["latency_p50_ms"].Value + ms(transport.WANTable3.NetworkTime(wire))
		if got := m["wan_model_ms"].Value; math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: wan_model_ms = %v, want %v", w.name, got, want)
		}
	}
}

// TestSelfTime: spans nest by containment per timeline, self time
// excludes children, and container self time counts against coverage.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(party, name string, from, to int) span {
		return span{party: party, name: name, layer: -1, start: t0.Add(time.Duration(from) * time.Millisecond),
			dur: time.Duration(to-from) * time.Millisecond}
	}
	spans := []span{
		at("bench", "request", 0, 100),
		at("bench", "session.dial", 0, 40),
		at("client", "setup", 1, 39),
		at("bench", "session.classify", 40, 100),
		at("client", "batch", 41, 99),
		at("client", "relu", 45, 95),
		at("server", "relu", 45, 95),
		at("bench", "bank.replenish", 200, 300),
	}
	nodes := analyze(spans)
	self := map[string]time.Duration{}
	for _, n := range nodes {
		if n.party != "server" {
			self[n.name] = n.self
		}
		if n.name == "bank.replenish" && n.inRequest {
			t.Error("replenishment outside the request counted on the request path")
		}
		if n.party == "server" && (!n.inRequest || n.self != 50*time.Millisecond) {
			t.Errorf("server relu: inRequest=%v self=%v", n.inRequest, n.self)
		}
	}
	want := map[string]time.Duration{"request": 0, "session.dial": 2 * time.Millisecond, "setup": 38 * time.Millisecond,
		"session.classify": 2 * time.Millisecond, "batch": 8 * time.Millisecond, "relu": 50 * time.Millisecond}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, self[name], d)
		}
	}
	// Uncovered: request 0 + classify 2 + batch 8 = 10 of 100 ms.
	if got := coverage(nodes); math.Abs(got-90) > 1e-9 {
		t.Errorf("coverage = %v, want 90", got)
	}
}
