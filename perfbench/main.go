// Command perfbench is the repository benchmark: end-to-end secure
// inference through the serving runtime, with both parties in this one
// process over in-memory pipes, and a traced mode that breaks a request
// down by layer. See README.md for the workloads and the metric map.
//
//	perfbench --workload mlp-b32-banked --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runDeadline bounds a whole run; a wedged protocol round must not hang
// the caller.
const runDeadline = 170 * time.Second

func main() {
	var (
		o       options
		seconds int
		traced  int
	)
	flag.StringVar(&o.workload, "workload", "", "workload name (see README.md)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traced, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.workDir, "work", ".bench_build/perfbench-work", "directory for the run's bank stores")
	flag.Parse()
	if seconds < 1 || (traced != 0 && traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.window = time.Duration(seconds) * time.Second
	o.trace = traced == 1

	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(3)
	})
	res, err := run(o, os.Stdout)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	workDir  string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeResult(w io.Writer, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
