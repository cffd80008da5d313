package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's metric contract; BENCHMARK.json lists the
// same names and units, and the package test holds the two equal.
type metricDef struct{ name, unit string }

// endToEnd metrics are reported by an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"report_ms_p50", "ms"},
	{"alloc_mb_per_report", "MB"},
	{"allocs_per_report", "count"},
	{"peak_rss_mb", "MB"},
	{"hit_ms_p50", "ms"},
	{"cold_ms_p50", "ms"},
	{"sweep_ms_p50", "ms"},
	{"serve_req_per_s", "1/s"},
}

// printedOnly metrics appear in the printed table but not in the result
// line. The tails are the highest percentile with ten samples beyond
// it; a 25 s run of a heavy spec workload has fifteen to thirty Reports
// and ten to twenty cold runs, where that percentile falls near or below
// the median, so a tail is printed with its percentile and sample count
// and not gated.
// resweep_ms_p50 is a re-posted sweep, every point a cache hit.
var printedOnly = []metricDef{
	{"report_ms_tail", "ms"},
	{"hit_ms_tail", "ms"},
	{"cold_ms_tail", "ms"},
	{"resweep_ms_p50", "ms"},
}

// perLayer metrics are reported by a traced run, on every workload.
var perLayer = []metricDef{
	{"runspec.decode_us", "us"},
	{"runspec.encode_ms", "ms"},
	{"runspec.report_kb", "KB"},
	{"runspec.link_snr_ms", "ms"},
	{"topo.generate_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.build_alloc_mb", "MB"},
	{"core.build_allocs", "count"},
	{"core.build_retained_mb", "MB"},
	{"core.build_us_per_node", "us"},
	{"mac.hearing_ms", "ms"},
	{"mac.hearing_components", "count"},
	{"core.run_ms", "ms"},
	{"core.run_alloc_mb", "MB"},
	{"core.run_allocs", "count"},
	{"core.run_us_per_served", "us"},
	{"mac.plan_round_us", "us"},
	{"mac.plan_round_allocs", "count"},
	{"mac.wins", "count"},
	{"mac.joins", "count"},
	{"mac.served", "count"},
	{"mac.drops", "count"},
	{"mac.residual", "count"},
	{"mac.join_ratio", "ratio"},
	{"core.components", "count"},
	{"core.churn_arrivals", "count"},
	{"core.churn_departures", "count"},
	{"core.churn_handoffs", "count"},
	{"testbed.add_us", "us"},
	{"testbed.move_us", "us"},
	{"testbed.remove_us", "us"},
	{"testbed.link_snr_us", "us"},
	{"mac.hearing_update_us", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.runs_executed", "count"},
	{"serve.coalesced", "count"},
	{"serve.evictions", "count"},
	{"serve.rejected_busy", "count"},
	{"serve.useful_exec_ratio", "ratio"},
	{"serve.run_wall_ms_p50", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.peak_queue_depth", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_us", "us"},
	{"trace.unaccounted_ms", "ms"},
}

// minTailSamples is the smallest sample count whose tail is a real
// percentile: ten samples beyond it plus the sample itself.
const minTailSamples = 11

// bench is the state of one workload run: operation accounting, the
// metrics measured so far, and the span recorder of a traced run.
type bench struct {
	cfg       config
	w         workload
	attempted int
	failed    int
	units     map[string]string
	e2e       map[string]metric
	layer     map[string]metric
	notes     map[string]string
	rec       *recorder // nil on untraced runs
	gcStart   gcSample
}

func newBench(cfg config, w workload) *bench {
	b := &bench{
		cfg:   cfg,
		w:     w,
		units: map[string]string{},
		e2e:   map[string]metric{},
		layer: map[string]metric{},
		notes: map[string]string{},
	}
	for _, d := range endToEnd {
		b.units[d.name] = d.unit
	}
	for _, d := range append(perLayer, printedOnly...) {
		b.units[d.name] = d.unit
	}
	if cfg.trace {
		b.rec = newRecorder()
	}
	return b
}

// op books one attempted operation; a false ok books a failure and
// prints why.
func (b *bench) op(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(b.cfg.out, "FAIL: %s\n", fmt.Sprintf(format, args...))
	}
}

// set records a metric; the name must be in one of the metric tables.
func (b *bench) set(name string, v float64, note string) {
	unit, ok := b.units[name]
	if !ok {
		panic("npbench: metric not in the metric tables: " + name)
	}
	m := metric{Value: v, Unit: unit}
	if isLayer(name) {
		b.layer[name] = m
	} else {
		b.e2e[name] = m
	}
	if note != "" {
		b.notes[name] = note
	}
}

func isLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// setTimes records a timing as its median and tail under
// <prefix>_p50 and <prefix>_tail.
func (b *bench) setTimes(prefix string, xs samples) {
	n := len(xs)
	tv, tp := xs.tail()
	b.set(prefix+"_p50", xs.p50(), fmt.Sprintf("n=%d", n))
	if n < minTailSamples {
		b.set(prefix+"_tail", tv, fmt.Sprintf("max of n=%d (fewer than %d samples)", n, minTailSamples))
		return
	}
	b.set(prefix+"_tail", tv, fmt.Sprintf("p%.1f, 10 of n=%d beyond", tp, n))
}

// finish prints the metric tables and builds the result line.
func (b *bench) finish() (*result, error) {
	if b.rec != nil && b.cfg.traceOut != "" {
		if err := b.rec.write(b.cfg.traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(b.cfg.out, "spans: %d written to %s\n", len(b.rec.spans), b.cfg.traceOut)
	}
	ratio := 0.0
	if b.attempted > 0 {
		ratio = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(b.cfg.out, "fail_ratio %.6f (%d failed of %d attempted)\n", ratio, b.failed, b.attempted)
	printTable(b.cfg.out, "end-to-end:", b.e2e, b.notes)
	if b.cfg.trace {
		printTable(b.cfg.out, "per-layer:", b.layer, b.notes)
	}
	want, got := endToEnd, b.e2e
	if b.cfg.trace {
		want, got = perLayer, b.layer
	}
	out := make(map[string]metric, len(want))
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", b.w.name, d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("workload %s measured %s as %v", b.w.name, d.name, m.Value)
		}
		out[d.name] = m
	}
	return &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   out,
	}, nil
}

// checkDigest compares a workload digest against the pinned one when
// the run uses the workload's default seed, and prints it either way
// so any two builds can be compared at any seed.
func (b *bench) checkDigest(digest string) {
	fmt.Fprintf(b.cfg.out, "digest %s seed=%d sha256=%s\n", b.w.name, b.cfg.seed, digest)
	if b.cfg.tiny || b.cfg.seed != b.w.defaultSeed {
		return
	}
	want, ok := pinnedDigests[b.w.name]
	b.op(ok && want == digest, "%s digest %s at default seed, pinned %s", b.w.name, digest, want)
}

// samples is a set of timings or sizes.
type samples []float64

func (xs samples) sorted() samples {
	s := append(samples(nil), xs...)
	sort.Float64s(s)
	return s
}

// p50 is the median (the mean of the middle two for even counts).
func (xs samples) p50() float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := xs.sorted()
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest nearest-rank percentile with at least ten
// samples beyond it, with that percentile; below minTailSamples no
// percentile qualifies and the maximum is returned as p100.
func (xs samples) tail() (float64, float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := xs.sorted()
	n := len(s)
	if n < minTailSamples {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mb = 1 << 20

// allocDelta is the heap allocation between two memstats reads.
type allocDelta struct {
	bytes, objects uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func allocSince(before runtime.MemStats) allocDelta {
	after := readMem()
	return allocDelta{bytes: after.TotalAlloc - before.TotalAlloc, objects: after.Mallocs - before.Mallocs}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// gcSample reads the runtime's cumulative GC, idle and total CPU time.
// The total is GOMAXPROCS integrated over wall time, so it includes
// the time no goroutine ran.
type gcSample struct{ gc, idle, total float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), idle: s[1].Value.Float64(), total: s[2].Value.Float64()}
}

// gcShare is the GC's share of the CPU time spent (total minus idle)
// since from.
func gcShare(from gcSample) float64 {
	now := readGC()
	spent := (now.total - from.total) - (now.idle - from.idle)
	if spent <= 0 {
		return 0
	}
	return (now.gc - from.gc) / spent
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// flipped returns a copy of data with one byte changed.
func flipped(data []byte) []byte {
	c := bytes.Clone(data)
	if len(c) > 0 {
		c[len(c)/2] ^= 0x20
	}
	return c
}
