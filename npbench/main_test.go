package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyRun runs one workload at the test's tiny size.
func tinyRun(t *testing.T, name string, trace bool, f faults) (*result, string) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	var out bytes.Buffer
	res, err := run(config{
		workload: name,
		seed:     w.defaultSeed,
		seconds:  200 * time.Millisecond,
		trace:    trace,
		traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
		tiny:     true,
		faults:   f,
		out:      &out,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
	}
	return res, out.String()
}

func metricNames(ms map[string]metric) []string {
	var out []string
	for n := range ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsPrintBenchmarkMetrics runs every workload at a tiny size,
// untraced and traced, and requires a clean result whose metric names
// and units are exactly the ones BENCHMARK.json declares.
func TestWorkloadsPrintBenchmarkMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); !slices.Equal(got, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, declared)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, out := tinyRun(t, w.name, trace, faults{})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			var names []string
			for _, m := range want {
				names = append(names, m.Name)
				if got, ok := res.Metrics[m.Name]; ok && got.Unit != m.Unit {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				}
			}
			sort.Strings(names)
			if got := metricNames(res.Metrics); !slices.Equal(got, names) {
				t.Errorf("%s trace=%v: printed metrics\n%v\nBENCHMARK.json declares\n%v", w.name, trace, got, names)
			}
		}
	}
}

// TestCorruptionRaisesFailRatio feeds one corrupted Report digest and
// one corrupted served body into a spec workload and serve-mix, and
// requires each to be counted as a failure.
func TestCorruptionRaisesFailRatio(t *testing.T) {
	for _, name := range []string{"clique-mac", "serve-mix"} {
		for _, f := range []faults{{reportDigest: true}, {servedBody: true}} {
			res, out := tinyRun(t, name, false, f)
			if res.Failed == 0 || res.Correct {
				t.Errorf("%s with %+v: failed=%d correct=%v, want the corruption counted\n%s", name, f, res.Failed, res.Correct, out)
			}
		}
	}
}

// TestDesignCoversEveryLayerMetric requires design.json to map every
// per-layer metric to the workload it shows on and the end-to-end
// metric it should move (or to mark it an exact count, or say why it
// moves none), and to record every workload's inputs and default seed.
func TestDesignCoversEveryLayerMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	data, err := os.ReadFile("design.json")
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Workloads map[string]struct {
			Why         string `json:"why"`
			Inputs      string `json:"inputs"`
			DefaultSeed *int64 `json:"default_seed"`
		} `json:"workloads"`
		Layers map[string]struct {
			Moves []string `json:"moves"`
			Exact bool     `json:"exact"`
			Note  string   `json:"note"`
			Shows []string `json:"shows_on"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wd, ok := d.Workloads[w.name]
		if !ok || wd.Why == "" || wd.Inputs == "" || wd.DefaultSeed == nil || *wd.DefaultSeed != w.defaultSeed {
			t.Errorf("design.json: workload %s lacks why, inputs or default seed %d", w.name, w.defaultSeed)
		}
	}
	for _, m := range bf.PerLayer {
		l, ok := d.Layers[m.Name]
		if !ok || len(l.Shows) == 0 || (len(l.Moves) == 0 && !l.Exact && l.Note == "") {
			t.Errorf("design.json: per-layer metric %s lacks the end-to-end metric it moves or the workload it shows on", m.Name)
		}
	}
}

func TestTail(t *testing.T) {
	var xs samples
	for i := 1; i <= 20; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := xs.tail(); v != 10 || p != 50 {
		t.Errorf("tail of 1..20 = %v at p%v, want 10 at p50 (ten samples beyond)", v, p)
	}
	if v, p := xs[:5].tail(); v != 5 || p != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want the maximum", v, p)
	}
}
