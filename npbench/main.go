// Command npbench is the repository's end-to-end benchmark: it runs one
// named workload against the simulator (spec bytes in, Report bytes
// out) and against an in-process npserve behind loopback HTTP, checks
// every output for correctness, and prints the metrics as one JSON
// object on the last line of standard output.
//
//	npbench --workload campus-build --seed 7 --seconds 25 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured
// with no spans recorded. With --trace 1 the run records spans around
// the benchmark's calls into each layer's public functions and reports
// the per-layer metrics, the tracing overhead, and the accounting of
// layer self times against the untraced iteration wall time, and writes
// the spans to .bench_build/trace-<workload>-seed<n>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// traceOut is the file a traced run writes its spans to.
	traceOut string
	// tiny shrinks every workload's inputs so the benchmark's own test
	// can run all of them in seconds; metric names are unchanged.
	tiny bool
	// faults injects output corruption, so the test can show that the
	// correctness gate catches it.
	faults faults
	out    io.Writer
}

// faults names the corruptions the correctness test injects.
type faults struct {
	// reportDigest corrupts the digest of one local Report iteration.
	reportDigest bool
	// servedBody corrupts one served response body before it is checked.
	servedBody bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+")")
		seed     = flag.Int64("seed", -1, "input seed; replaces every spec seed (default: the workload's own)")
		seconds  = flag.Int("seconds", 20, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "npbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "npbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		out:      os.Stdout,
	}
	if cfg.seed < 0 {
		cfg.seed = w.defaultSeed
	}
	cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.seed))
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns its result line.
func run(cfg config) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b := newBench(cfg, w)
	fmt.Fprintf(cfg.out, "npbench: workload=%s seed=%d seconds=%s trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	if err := w.run(b); err != nil {
		return nil, err
	}
	return b.finish()
}

// printTable prints metrics as an aligned, name-sorted table.
func printTable(out io.Writer, title string, ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s\n", title)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(out, "  %-28s %14.4f %-6s %s\n", n, m.Value, m.Unit, notes[n])
	}
}
