package runspec

import (
	"bytes"
	"encoding/json"
	"testing"

	"nplus/internal/assoc"
)

// dynamicSpec is the shared spec-level churn fixture: a small mobile
// campus with churn under the biased-SINR policy, short enough for
// unit-test budgets.
func dynamicSpec() Spec {
	return Spec{
		Topo: "campus", Nodes: 48, Clusters: 4,
		Traffic: "poisson", RatePPS: 1500, DurationS: 0.04,
		Churn:       &ChurnSpec{ArrivalPerS: 300, MeanSessionS: 0.02},
		Mobility:    &MobilitySpec{Model: "cluster-hop", SpeedMPS: 100, IntervalS: 0.005},
		Association: &AssociationSpec{Policy: "biased-sinr"},
	}
}

// TestNormalizeDynamicDefaults pins the canonical form of the dynamic
// blocks: an absent association block materializes as the nearest
// default, an empty policy resolves the same way, and a zero mobility
// interval becomes the explicit 1-second cadence.
func TestNormalizeDynamicDefaults(t *testing.T) {
	s := dynamicSpec()
	s.Association = nil
	s.Mobility.IntervalS = 0
	n, err := s.Normalized()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if n.Association == nil || n.Association.Policy != assoc.DefaultPolicy {
		t.Fatalf("association = %+v, want default %q", n.Association, assoc.DefaultPolicy)
	}
	if n.Mobility.IntervalS != 1 {
		t.Fatalf("mobility interval = %g, want explicit 1", n.Mobility.IntervalS)
	}
	if n.Engine != EngineProtocol {
		t.Fatalf("engine = %q, want protocol", n.Engine)
	}
}

// TestNormalizeDynamicRejects pins the dynamic knobs' error surface —
// every combination the engines cannot consume fails loudly.
func TestNormalizeDynamicRejects(t *testing.T) {
	churn := &ChurnSpec{ArrivalPerS: 10, MeanSessionS: 1}
	cases := map[string]Spec{
		"churn on scenario":     {Scenario: "trio", Traffic: "poisson", Churn: churn},
		"churn on epoch engine": {Scenario: "trio", Engine: EngineEpoch, Churn: churn},
		"churn on ad-hoc topo":  {Topo: "disk-adhoc", Traffic: "poisson", Churn: churn},
		"zero arrival rate": {Topo: "campus", Traffic: "poisson",
			Churn: &ChurnSpec{ArrivalPerS: 0, MeanSessionS: 1}},
		"zero session": {Topo: "campus", Traffic: "poisson",
			Churn: &ChurnSpec{ArrivalPerS: 10, MeanSessionS: 0}},
		"unknown mobility model": {Topo: "campus", Traffic: "poisson",
			Mobility: &MobilitySpec{Model: "nope", SpeedMPS: 1}},
		"zero speed": {Topo: "campus", Traffic: "poisson",
			Mobility: &MobilitySpec{Model: "waypoint", SpeedMPS: 0}},
		"negative move interval": {Topo: "campus", Traffic: "poisson",
			Mobility: &MobilitySpec{Model: "waypoint", SpeedMPS: 1, IntervalS: -1}},
		"association without churn or mobility": {Topo: "campus", Traffic: "poisson",
			Association: &AssociationSpec{Policy: "nearest"}},
		"unknown association policy": {Topo: "campus", Traffic: "poisson", Churn: churn,
			Association: &AssociationSpec{Policy: "nope"}},
		"bias on biasless policy": {Topo: "campus", Traffic: "poisson", Churn: churn,
			Association: &AssociationSpec{Policy: "nearest", BiasDBPerAntenna: f64(3)}},
	}
	for name, s := range cases {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("%s: normalized without error", name)
		}
	}
}

func f64(v float64) *float64 { return &v }

// TestDynamicSpecRoundTrip runs the churn fixture end to end through
// the declarative surface: the Report carries the churn section, the
// flow table covers churned arrivals (flows the static network never
// had), departed flows still encode (no NaN link budgets), and a
// JSON-decoded twin of the spec produces a byte-identical Report.
func TestDynamicSpecRoundTrip(t *testing.T) {
	rep, err := Run(dynamicSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Churn
	if c == nil || c.Arrivals == 0 || c.Departures == 0 {
		t.Fatalf("churn section missing or inert: %+v", c)
	}
	// Flow ids are dense: every churned arrival appends one past the
	// initial population, so the table covers a contiguous id range.
	minID, maxID := rep.Flows[0].ID, rep.Flows[0].ID
	for _, f := range rep.Flows {
		if f.ID < minID {
			minID = f.ID
		}
		if f.ID > maxID {
			maxID = f.ID
		}
	}
	if len(rep.Flows) != maxID-minID+1 {
		t.Fatalf("%d flows reported over id range [%d,%d]: churned flows missing from the table", len(rep.Flows), minID, maxID)
	}
	if initial := len(rep.Flows) - c.Arrivals; initial <= 0 {
		t.Fatalf("%d flows reported with %d arrivals: no initial population", len(rep.Flows), c.Arrivals)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("report with departed flows does not encode: %v", err)
	}

	blob, err := json.Marshal(dynamicSpec())
	if err != nil {
		t.Fatal(err)
	}
	twinSpec, err := DecodeSpec(blob)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Run(twinSpec)
	if err != nil {
		t.Fatal(err)
	}
	twinData, err := twin.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, twinData) {
		t.Fatal("JSON-decoded spec twin produced a different Report")
	}
	// Dynamic runs force the single-engine path, so workers stays a
	// pure scheduling knob: the full Report is byte-identical at any
	// value (workers is canonicalized out of the embedded spec).
	for _, workers := range []int{4, 8} {
		ws := dynamicSpec()
		ws.Workers = workers
		wrep, err := Run(ws)
		if err != nil {
			t.Fatal(err)
		}
		wdata, err := wrep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, wdata) {
			t.Fatalf("workers=%d: churning Report diverged from workers=0", workers)
		}
	}
	if rep.Render() == "" {
		t.Fatal("empty rendered report")
	}
}

// TestDynamicRunsOnSingleCellLayouts is the regression for churn and
// mobility on unclustered layouts: the disk generators record no cell
// map, and the first arrival or move used to panic writing to it.
func TestDynamicRunsOnSingleCellLayouts(t *testing.T) {
	cases := map[string]Spec{
		"churn": {Topo: "disk-uplink", Nodes: 10, Traffic: "poisson", DurationS: 0.2,
			Churn: &ChurnSpec{ArrivalPerS: 100, MeanSessionS: 0.05}},
		"waypoint mobility": {Topo: "disk-uplink", Nodes: 10, Traffic: "poisson", DurationS: 0.2,
			Mobility: &MobilitySpec{Model: "waypoint", SpeedMPS: 5, IntervalS: 0.02}},
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if s.Churn != nil && rep.Churn.Arrivals == 0 {
				t.Fatal("no arrivals: the churn path never ran")
			}
		})
	}
}
