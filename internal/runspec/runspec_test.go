package runspec

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nplus/internal/traffic"
)

func TestNormalizeDefaults(t *testing.T) {
	n, err := Spec{}.Normalized()
	if err != nil {
		t.Fatalf("zero spec: %v", err)
	}
	if n.Scenario != "trio" || n.Topo != "" {
		t.Fatalf("deployment = %q/%q, want trio", n.Scenario, n.Topo)
	}
	if n.Traffic != traffic.Saturated || n.Mode != "nplus" {
		t.Fatalf("traffic/mode = %q/%q", n.Traffic, n.Mode)
	}
	if n.Engine != EngineEpoch || n.Epochs != DefaultEpochs || n.DurationS != 0 {
		t.Fatalf("engine resolution = %q epochs=%d duration=%g", n.Engine, n.Epochs, n.DurationS)
	}
	if n.Seed == nil || *n.Seed != DefaultSeed {
		t.Fatalf("seed = %v, want %d", n.Seed, DefaultSeed)
	}
	// Normalization is idempotent — the canonical-form contract.
	again, err := n.Normalized()
	if err != nil {
		t.Fatalf("re-normalize: %v", err)
	}
	a, _ := json.Marshal(n)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Fatalf("normalization not idempotent:\n%s\n%s", a, b)
	}
}

func TestNormalizeAutoEngine(t *testing.T) {
	n, err := Spec{Topo: "disk-adhoc"}.Normalized()
	if err != nil {
		t.Fatalf("topo spec: %v", err)
	}
	if n.Engine != EngineProtocol || n.Nodes != DefaultNodes || n.DurationS != DefaultDuration {
		t.Fatalf("topo run: engine=%q nodes=%d duration=%g", n.Engine, n.Nodes, n.DurationS)
	}
	n, err = Spec{Traffic: "poisson"}.Normalized()
	if err != nil {
		t.Fatalf("open-loop spec: %v", err)
	}
	if n.Engine != EngineProtocol || n.RatePPS != DefaultRatePPS || n.QueueCap != DefaultQueueCap {
		t.Fatalf("open-loop run: engine=%q rate=%g queue=%d", n.Engine, n.RatePPS, n.QueueCap)
	}
	// An observe block only exists on the event-driven path, so it
	// selects the protocol engine even for a saturated scenario.
	observe := &ObserveSpec{Metrics: []string{"all"}}
	n, err = Spec{Scenario: "trio", Observe: observe}.Normalized()
	if err != nil {
		t.Fatalf("observed scenario: %v", err)
	}
	if n.Engine != EngineProtocol || n.DurationS != DefaultDuration {
		t.Fatalf("observed scenario: engine=%q duration=%g", n.Engine, n.DurationS)
	}
	// A pinned epoch engine is a contradiction, never overridden.
	if _, err := (Spec{Scenario: "trio", Engine: EngineEpoch, Observe: observe}).Normalized(); err == nil {
		t.Fatal("observe block on a pinned epoch engine normalized without error")
	}
}

// Every knob the resolved engine or traffic model cannot consume is
// an error, never silently dropped — the satellite fix for npsim's
// old behavior of ignoring -rate/-queue in epoch mode.
func TestNormalizeRejects(t *testing.T) {
	cases := map[string]Spec{
		"scenario+topo":            {Scenario: "trio", Topo: "disk-adhoc"},
		"unknown scenario":         {Scenario: "nope"},
		"unknown topo":             {Topo: "nope"},
		"unknown traffic":          {Traffic: "nope"},
		"unknown mode":             {Mode: "nope"},
		"unknown engine":           {Engine: "nope"},
		"nodes on scenario":        {Scenario: "trio", Nodes: 10},
		"rate under saturated":     {Scenario: "trio", RatePPS: 400},
		"queue under saturated":    {Scenario: "trio", QueueCap: 32},
		"epoch engine + open loop": {Engine: EngineEpoch, Traffic: "poisson"},
		"duration on epoch engine": {Scenario: "trio", DurationS: 0.1},
		"epochs on protocol":       {Topo: "disk-adhoc", Epochs: 100},
		"negative rate":            {Traffic: "poisson", RatePPS: -1},
		"tiny topology":            {Topo: "disk-adhoc", Nodes: 1},
	}
	for name, s := range cases {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("%s: normalized without error", name)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"scenario":"trio","epocs":5}`)); err == nil {
		t.Fatal("typo field decoded without error")
	}
	if _, err := DecodeSweep([]byte(`{"base":{},"rate":[1]}`)); err == nil {
		t.Fatal("typo sweep axis decoded without error")
	}
}

// An explicit seed of 0 must survive the whole pipeline — the
// zero-value sentinel trap this PR removes.
func TestExplicitZeroSeed(t *testing.T) {
	zero := int64(0)
	n, err := Spec{Seed: &zero, Epochs: 5}.Normalized()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if n.Seed == nil || *n.Seed != 0 {
		t.Fatalf("seed = %v, want explicit 0", n.Seed)
	}
	rep, err := Run(n)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Spec.SeedValue() != 0 {
		t.Fatalf("report seed = %d, want 0", rep.Spec.SeedValue())
	}
}

// Decode→run→encode determinism: a spec built in Go and its
// JSON-serialized twin produce byte-identical Reports.
func TestRoundTripEpoch(t *testing.T) {
	spec := Spec{Scenario: "trio", Mode: "nplus", Epochs: 40}
	rep1, err := Run(spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	twin, err := DecodeSpec(data)
	if err != nil {
		t.Fatalf("decode spec: %v", err)
	}
	rep2, err := Run(twin)
	if err != nil {
		t.Fatalf("run twin: %v", err)
	}
	j1, _ := rep1.JSON()
	j2, _ := rep2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("round-trip reports differ:\n%s\n----\n%s", j1, j2)
	}
	// And re-running the identical spec is bit-identical too.
	rep3, err := Run(spec)
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	j3, _ := rep3.JSON()
	if !bytes.Equal(j1, j3) {
		t.Fatal("identical specs produced different reports")
	}
}

func TestProtocolReportOpenLoop(t *testing.T) {
	spec := Spec{Scenario: "downlink", Traffic: "poisson", RatePPS: 600, DurationS: 0.03}
	rep, err := Run(spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Spec.Engine != EngineProtocol {
		t.Fatalf("engine = %q, want protocol", rep.Spec.Engine)
	}
	if len(rep.Flows) != 3 {
		t.Fatalf("downlink has %d flows, want 3", len(rep.Flows))
	}
	if rep.Totals.Arrivals == 0 {
		t.Fatal("open-loop run recorded no arrivals")
	}
	if rep.Totals.Delay == nil || rep.Totals.Delay.P95Ms < rep.Totals.Delay.P50Ms {
		t.Fatalf("bad pooled delay summary: %+v", rep.Totals.Delay)
	}
	if f := rep.Totals.AirtimeFrac; f <= 0 || f > 1 {
		t.Fatalf("airtime fraction %g outside (0, 1]", f)
	}
	if f := rep.Totals.OverheadFrac; f < 0 || f > 1 {
		t.Fatalf("overhead fraction %g outside [0, 1]", f)
	}
	var sum float64
	for _, f := range rep.Flows {
		sum += f.ThroughputMbps
		if f.SNRLossDB != nil {
			t.Fatal("protocol-engine flow carries an epoch-only SNR loss")
		}
	}
	if diff := sum - rep.Totals.ThroughputMbps; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("per-flow throughput sums to %g, totals say %g", sum, rep.Totals.ThroughputMbps)
	}
	// Saturated protocol runs must NOT carry open-loop fields.
	sat, err := Run(Spec{Scenario: "downlink", Engine: EngineProtocol, DurationS: 0.02})
	if err != nil {
		t.Fatalf("saturated run: %v", err)
	}
	if sat.Totals.Arrivals != 0 || sat.Totals.Delay != nil {
		t.Fatal("saturated run reports open-loop accounting")
	}
}

// Epoch reports expose the §6.2 SNR-loss metric per flow.
func TestEpochReportSNRLoss(t *testing.T) {
	rep, err := Run(Spec{Scenario: "trio", Epochs: 30})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range rep.Flows {
		if f.SNRLossDB == nil {
			t.Fatalf("flow %d missing snr_loss_db under the epoch engine", f.ID)
		}
	}
	if rep.ElapsedS <= 0 {
		t.Fatalf("elapsed = %g", rep.ElapsedS)
	}
	if rep.Totals.AirtimeFrac+rep.Totals.OverheadFrac <= 0.99 ||
		rep.Totals.AirtimeFrac+rep.Totals.OverheadFrac > 1.01 {
		t.Fatalf("epoch airtime+overhead = %g, want ≈1 (elapsed is fully decomposed)",
			rep.Totals.AirtimeFrac+rep.Totals.OverheadFrac)
	}
}

// The checked-in example specs must decode, validate, and stay in
// canonical form — they are the documented entry point.
func TestExampleSpecsAreValid(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "specs")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example specs found in %s (err=%v)", dir, err)
	}
	for _, path := range files {
		sw, err := LoadSweep(path)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		specs, err := sw.Expand()
		if err != nil {
			t.Errorf("%s: expand: %v", filepath.Base(path), err)
			continue
		}
		if len(specs) == 0 {
			t.Errorf("%s: expanded to zero runs", filepath.Base(path))
		}
	}
}

// The example Reports are the byte contract: `npsim -spec f -json`
// prints rep.JSON() plus a newline, and its SHA-256 is pinned here so
// any change to the bytes fails tier 1, not only a manual diff.
func TestExampleReportDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64; the compiler may fuse multiply-adds on %s, which changes the floats", runtime.GOARCH)
	}
	for name, want := range map[string]string{
		"campus":    "d25bc072c861b615c93bf1a40dfc39c08d5c650ff81003e4118745b93d2e7b0a",
		"uplink200": "7def5b72ef3e396c6cb2a9c62297a1a5ad2a8709cef5cecc8aa3bdb6a61187ac",
		"churn":     "8047d0ba2b5ab9d5cffb0a4a0506692851f4f6144be7a28a9a857d1b0d9e0147",
		"trio":      "9e7c67bbd0ebd9367ef0342c68c38ec722b0f077ff065fd0722095b9978c08c8",
		"observe":   "9f64a9a23e11e6e93e49d39ef839ebf73280393d8c3c0bad7df93078bd550074",
	} {
		t.Run(name, func(t *testing.T) {
			spec, err := LoadSpec(filepath.Join("..", "..", "examples", "specs", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			norm, err := spec.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(norm)
			if err != nil {
				t.Fatal(err)
			}
			data, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(append(data, '\n'))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("sha256 %s, want %s", got, want)
			}
		})
	}
}

// Every key in the golden list must appear in an emitted Report —
// the schema contract the CI smoke job checks against real npsim
// output.
func TestReportGoldenKeys(t *testing.T) {
	rep, err := Run(Spec{Scenario: "trio", Epochs: 10})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	f, err := os.Open(filepath.Join("..", "..", "examples", "specs", "report_golden_keys.txt"))
	if err != nil {
		t.Fatalf("golden key list: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key := strings.TrimSpace(sc.Text())
		if key == "" {
			continue
		}
		if !bytes.Contains(data, []byte(`"`+key+`"`)) {
			t.Errorf("report JSON missing golden key %q", key)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// A run duration shorter than one data window must not report more
// than 100% medium occupancy: only completed windows are booked.
func TestShortRunAirtimeBounded(t *testing.T) {
	rep, err := Run(Spec{Scenario: "trio", Engine: EngineProtocol, DurationS: 0.0005})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sum := rep.Totals.AirtimeFrac + rep.Totals.OverheadFrac
	if sum < 0 || sum > 1 {
		t.Fatalf("airtime+overhead = %g on a cut-off run, want within [0, 1]", sum)
	}
}

// Tracing is a protocol-engine feature; an explicitly requested epoch
// engine is a contradiction to reject, not silently override.
func TestTraceRejectsEpochEngine(t *testing.T) {
	if _, err := RunTraced(Spec{Scenario: "trio", Engine: EngineEpoch}, true); err == nil {
		t.Fatal("trace + epoch engine ran without error")
	}
}

// TestTracingDoesNotPerturbTheRun pins that a trace only observes: a
// traced Report with its trace and events cleared is byte-identical
// to the untraced Report, on the single-engine (uplink200), sharded
// (observe), and dynamic (churn) paths.
func TestTracingDoesNotPerturbTheRun(t *testing.T) {
	for _, name := range []string{"uplink200", "observe", "churn"} {
		t.Run(name, func(t *testing.T) {
			s, err := LoadSpec(filepath.Join("..", "..", "examples", "specs", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := RunTraced(s, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(traced.Trace) == 0 || len(traced.Trace) != len(traced.Events) {
				t.Fatalf("traced run carries %d trace lines for %d events", len(traced.Trace), len(traced.Events))
			}
			traced.Trace, traced.Events = nil, nil
			want, err := plain.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got, err := traced.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("tracing changed the Report")
			}
		})
	}
}
