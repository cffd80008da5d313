// Package runspec is the declarative run surface of the simulator:
// one serializable Spec describes a complete scenario — deployment,
// traffic, MAC mode, engine, seed, and core options — and one
// entrypoint, Run, executes it and returns a typed, JSON-marshalable
// Report. Sweep expands grid axes (rates × nodes × modes × seeds)
// over a base Spec and fans the points through the exp parallel
// runner, so batch evaluations inherit the engine's
// bit-identical-at-any-worker-count contract.
//
// Specs decode strictly from JSON (unknown fields are errors) and
// validate against the live registries — core scenarios, topo
// generators, traffic models, mac modes — so a spec file is checked
// against exactly what the binary can run. Every knob that is
// meaningless for the resolved engine or traffic model is rejected,
// not silently ignored.
package runspec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"nplus/internal/assoc"
	"nplus/internal/core"
	"nplus/internal/knob"
	"nplus/internal/mac"
	"nplus/internal/obs"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

// Engines a Spec can select. Empty means auto: hand-built saturated
// scenarios use the paper's fast epoch methodology (§6.3), everything
// else runs the event-driven protocol.
const (
	EngineEpoch    = "epoch"
	EngineProtocol = "protocol"
)

// Default knob values a Normalized spec fills in, mirroring the
// historical npsim flag defaults so a zero Spec runs the Fig. 3 trio
// exactly as `npsim` with no flags always has.
const (
	DefaultSeed     int64 = 4
	DefaultEpochs         = 200
	DefaultDuration       = 0.1
	DefaultQueueCap       = 64
	DefaultRatePPS        = 400
	DefaultNodes          = 50
	DefaultClusters       = 4
	DefaultScenario       = "trio"
	DefaultMode           = "nplus"
)

// BurstyModel is the one traffic model the on_fraction/cycle_sec
// knobs apply to.
const BurstyModel = "bursty"

// Spec is one declarative simulation run. The zero value normalizes
// to the default trio/epoch run; JSON field names are the stable
// serialization contract.
type Spec struct {
	// Name is a free-form label echoed into the Report (useful to tag
	// sweep points); it never affects execution.
	Name string `json:"name,omitempty"`

	// Scenario names a hand-built deployment from the core registry;
	// Topo names a generator from the topo registry. Exactly one
	// applies (both empty selects the default scenario).
	Scenario string `json:"scenario,omitempty"`
	Topo     string `json:"topo,omitempty"`
	// Nodes sizes a generated topology (0 → 50). It is rejected for
	// hand-built scenarios, which fix their own node sets.
	Nodes int `json:"nodes,omitempty"`
	// Clusters and InterClusterLossDB shape clustered topologies
	// (campus, multiroom): the number of spatial cells (0 →
	// DefaultClusters) and the extra attenuation on links crossing
	// cell boundaries (nil → the generator's calibrated default; an
	// explicit 0 means geometry-only isolation). Both are rejected for
	// generators without cluster structure, where they would otherwise
	// be silently ignored.
	Clusters           int      `json:"clusters,omitempty"`
	InterClusterLossDB *float64 `json:"inter_cluster_loss_db,omitempty"`

	// Traffic names an arrival model from the traffic registry
	// (empty → saturated). RatePPS and QueueCap parameterize open-loop
	// models and are rejected under saturated traffic, where they
	// would otherwise be silently ignored. OnFraction and CycleSec
	// parameterize the bursty model only (nil → calibrated defaults;
	// explicit non-positive values are rejected, never silently
	// replaced) and are rejected for every other model.
	Traffic    string   `json:"traffic,omitempty"`
	RatePPS    float64  `json:"rate_pps,omitempty"`
	QueueCap   int      `json:"queue_cap,omitempty"`
	OnFraction *float64 `json:"on_fraction,omitempty"`
	CycleSec   *float64 `json:"cycle_sec,omitempty"`

	// Mode is the MAC variant's CLI name (empty → nplus).
	Mode string `json:"mode,omitempty"`

	// Engine pins the execution path ("epoch" or "protocol"); empty
	// resolves automatically. Epochs drives the epoch engine,
	// DurationS the protocol engine; setting the one the resolved
	// engine cannot use is an error.
	Engine    string  `json:"engine,omitempty"`
	Epochs    int     `json:"epochs,omitempty"`
	DurationS float64 `json:"duration_s,omitempty"`

	// Workers bounds the worker pool a protocol run executes its
	// hearing-graph components on (0 = all CPUs). It is a scheduling
	// knob only — per-component RNG streams derive from (seed,
	// component id), so results are bit-identical at any value, and
	// Reports canonicalize it away. The epoch engine runs a single
	// clique domain and cannot shard: a non-zero Workers there is an
	// error, consistent with the no-silent-drop rule.
	Workers int `json:"workers,omitempty"`

	// Seed roots every RNG of the run. A pointer so an explicit seed
	// of 0 is expressible; nil selects DefaultSeed.
	Seed *int64 `json:"seed,omitempty"`

	// Churn and Mobility switch the run to a dynamic population:
	// stations arrive, move, and depart mid-run. Both are
	// protocol-engine knobs over a generated uplink topology (the
	// population model needs AP structure to attach arrivals to).
	// Association selects the policy deciding AP attachment on arrival
	// and handoff on movement; it defaults to "nearest" when churn or
	// mobility is active and is rejected on its own — a static
	// population never re-decides attachment.
	Churn       *ChurnSpec       `json:"churn,omitempty"`
	Mobility    *MobilitySpec    `json:"mobility,omitempty"`
	Association *AssociationSpec `json:"association,omitempty"`

	// Observe selects observability for a protocol-engine run: the
	// typed event stream, report metrics, and probe cadence. Nil (or a
	// zero block, which normalizes to nil) observes nothing — the
	// simulator's disabled fast path. The epoch engine has no event
	// stream; an observe block there is an error.
	Observe *ObserveSpec `json:"observe,omitempty"`

	// Options overrides the calibrated core defaults. Pointer fields
	// so explicit zeros (e.g. disabling the §4 admission threshold)
	// survive serialization — core's NaN sentinel cannot.
	Options *OptionsSpec `json:"options,omitempty"`
}

// OptionsSpec is the serializable view of core.Options' tunables. A
// nil field keeps the calibrated default; a set field is taken as
// given, including zero.
type OptionsSpec struct {
	// JoinThresholdDB is L of §4 (default 27); explicit ≤ 0 disables
	// the admission check.
	JoinThresholdDB *float64 `json:"join_threshold_db,omitempty"`
	// AlignmentSpaceError is the advertised-U⊥ estimation error
	// (default 0.05); explicit 0 means a perfectly advertised space.
	AlignmentSpaceError *float64 `json:"alignment_space_error,omitempty"`
	// PERWidth is the delivery waterfall width in dB (default 1);
	// explicit 0 selects a hard threshold.
	PERWidth *float64 `json:"per_width,omitempty"`
	// CSThresholdDB is the carrier-sense decode threshold in dB SNR
	// (default −30, keeping single-floor deployments one clique). A
	// very low value (e.g. −200) forces the global single-domain
	// medium; higher values shrink decode range, producing hidden
	// terminals and sharded collision domains.
	CSThresholdDB *float64 `json:"cs_threshold_db,omitempty"`
}

// ObserveSpec is the spec's observability block. Observation never
// changes simulated behavior: probes read protocol state without
// touching any RNG, and the event stream — like every other result —
// is byte-identical at any worker count (merged by time, domain,
// sequence).
type ObserveSpec struct {
	// Events is a path the typed event stream is written to as JSONL,
	// one event per line. Empty collects no stream (unless the run is
	// traced, which derives its text from the same events).
	Events string `json:"events,omitempty"`
	// ProbeIntervalS samples every collision domain's queue depth,
	// in-flight transmissions, and CW distribution each interval of
	// virtual time, feeding probe events and the distribution
	// histograms. 0 disables probes; negative is an error.
	ProbeIntervalS float64 `json:"probe_interval_s,omitempty"`
	// Metrics selects registry metrics for the report's metrics
	// section, validated against the obs registry. The single entry
	// "all" expands to every registered metric. Empty collects none.
	Metrics []string `json:"metrics,omitempty"`
}

// zero reports whether the block requests nothing.
func (o *ObserveSpec) zero() bool {
	return o == nil || (o.Events == "" && o.ProbeIntervalS == 0 && len(o.Metrics) == 0)
}

// ChurnSpec is the spec's dynamic-population block: stations arrive
// as a Poisson process and hold exponentially distributed sessions.
// Both rates are required — a churn block that cannot churn is a
// configuration error, not a no-op.
type ChurnSpec struct {
	// ArrivalPerS is the mean station arrival rate in stations per
	// virtual second.
	ArrivalPerS float64 `json:"arrival_per_s"`
	// MeanSessionS is the mean station session length in virtual
	// seconds (applies to initial stations too, so the population
	// converges to the arrival_per_s·mean_session_s steady state).
	MeanSessionS float64 `json:"mean_session_s"`
}

// MobilitySpec is the spec's station-movement block, validated
// against the topo mobility registry.
type MobilitySpec struct {
	// Model names a registered mobility model (topo.MobilityNames).
	Model string `json:"model"`
	// SpeedMPS is the station speed in meters per virtual second.
	SpeedMPS float64 `json:"speed_mps"`
	// IntervalS is the position-update cadence in virtual seconds
	// (0 → 1 s, made explicit by normalization).
	IntervalS float64 `json:"interval_s,omitempty"`
}

// AssociationSpec selects the AP-attachment policy of a dynamic run,
// validated against the assoc registry.
type AssociationSpec struct {
	// Policy names a registered association policy (empty → "nearest",
	// made explicit by normalization).
	Policy string `json:"policy,omitempty"`
	// BiasDBPerAntenna tilts the biased-sinr policy toward
	// multi-antenna APs (nil → the calibrated default). It is rejected
	// for every other policy, which would silently ignore it.
	BiasDBPerAntenna *float64 `json:"bias_db_per_antenna,omitempty"`
}

// coreOptions resolves the spec's option overrides over the
// calibrated defaults.
func (s Spec) coreOptions() core.Options {
	opts := core.DefaultOptions()
	if o := s.Options; o != nil {
		if o.JoinThresholdDB != nil {
			opts.JoinThresholdDB = *o.JoinThresholdDB
		}
		if o.AlignmentSpaceError != nil {
			opts.AlignmentSpaceError = *o.AlignmentSpaceError
		}
		if o.PERWidth != nil {
			opts.PERWidth = *o.PERWidth
		}
		if o.CSThresholdDB != nil {
			opts.CSThresholdDB = *o.CSThresholdDB
		}
	}
	return opts
}

// SeedValue returns the effective seed (DefaultSeed when unset).
func (s Spec) SeedValue() int64 {
	if s.Seed == nil {
		return DefaultSeed
	}
	return *s.Seed
}

// Normalized resolves defaults, the execution engine, and validates
// every field against the registries. The result is canonical: two
// specs describing the same run normalize to identical structs, and
// every knob the resolved engine cannot consume has been rejected
// rather than dropped. Reports embed the normalized spec.
func (s Spec) Normalized() (Spec, error) {
	// Deployment.
	if s.Scenario != "" && s.Topo != "" {
		return s, fmt.Errorf("runspec: scenario %q and topo %q are mutually exclusive", s.Scenario, s.Topo)
	}
	if s.Scenario == "" && s.Topo == "" {
		s.Scenario = DefaultScenario
	}
	if s.Topo != "" {
		gen, ok := topo.ByName(s.Topo)
		if !ok {
			return s, fmt.Errorf("runspec: unknown topology generator %q (have %v)", s.Topo, topo.Names())
		}
		if s.Nodes == 0 {
			s.Nodes = DefaultNodes
		}
		if s.Nodes < 2 {
			return s, fmt.Errorf("runspec: %d nodes (need at least a pair)", s.Nodes)
		}
		if gen.Clustered {
			if s.Clusters == 0 {
				s.Clusters = DefaultClusters
			}
			if s.Clusters < 1 {
				return s, fmt.Errorf("runspec: %d clusters is not positive", s.Clusters)
			}
			if s.Nodes < 2*s.Clusters {
				return s, fmt.Errorf("runspec: %d nodes across %d clusters (need at least a pair per cluster)", s.Nodes, s.Clusters)
			}
			if s.InterClusterLossDB != nil && *s.InterClusterLossDB < 0 {
				return s, fmt.Errorf("runspec: inter-cluster loss %g dB is negative", *s.InterClusterLossDB)
			}
		} else {
			if s.Clusters != 0 {
				return s, fmt.Errorf("runspec: clusters is a clustered-topology knob; generator %q has no cell structure", s.Topo)
			}
			if s.InterClusterLossDB != nil {
				return s, fmt.Errorf("runspec: inter_cluster_loss_db is a clustered-topology knob; generator %q has no cell structure", s.Topo)
			}
		}
	} else {
		if _, ok := core.ScenarioByName(s.Scenario); !ok {
			return s, fmt.Errorf("runspec: unknown scenario %q (have %v)", s.Scenario, core.ScenarioNames())
		}
		if s.Nodes != 0 {
			return s, fmt.Errorf("runspec: nodes is a generated-topology knob; scenario %q fixes its own node set", s.Scenario)
		}
		if s.Clusters != 0 || s.InterClusterLossDB != nil {
			return s, fmt.Errorf("runspec: cluster geometry is a generated-topology knob; scenario %q fixes its own layout", s.Scenario)
		}
	}

	// Traffic.
	if s.Traffic == "" {
		s.Traffic = traffic.Saturated
	}
	if _, ok := traffic.ByName(s.Traffic); !ok {
		return s, fmt.Errorf("runspec: unknown traffic model %q (have %v)", s.Traffic, traffic.Names())
	}
	openLoop := s.Traffic != traffic.Saturated
	if openLoop {
		if s.RatePPS == 0 {
			s.RatePPS = DefaultRatePPS
		}
		if s.RatePPS < 0 {
			return s, fmt.Errorf("runspec: rate %g pkt/s is not positive", s.RatePPS)
		}
		if s.QueueCap == 0 {
			s.QueueCap = DefaultQueueCap
		}
		if s.QueueCap < 1 {
			return s, fmt.Errorf("runspec: queue capacity %d is not positive", s.QueueCap)
		}
	} else {
		// Reject rather than silently drop: these knobs only exist for
		// open-loop arrival models.
		if s.RatePPS != 0 {
			return s, fmt.Errorf("runspec: rate_pps needs an open-loop traffic model, but traffic is saturated")
		}
		if s.QueueCap != 0 {
			return s, fmt.Errorf("runspec: queue_cap needs an open-loop traffic model, but traffic is saturated")
		}
	}
	if s.Traffic == BurstyModel {
		// Explicit non-positive values are configuration errors, never
		// silently replaced by defaults (the same zero-as-default trap
		// core.Options purged).
		if s.OnFraction != nil && (*s.OnFraction <= 0 || *s.OnFraction > 1) {
			return s, fmt.Errorf("runspec: on_fraction %g outside (0, 1]", *s.OnFraction)
		}
		if s.CycleSec != nil && *s.CycleSec <= 0 {
			return s, fmt.Errorf("runspec: cycle_sec %g s is not positive", *s.CycleSec)
		}
	} else {
		if s.OnFraction != nil {
			return s, fmt.Errorf("runspec: on_fraction is a bursty-model knob; traffic is %q", s.Traffic)
		}
		if s.CycleSec != nil {
			return s, fmt.Errorf("runspec: cycle_sec is a bursty-model knob; traffic is %q", s.Traffic)
		}
	}

	// MAC mode.
	if s.Mode == "" {
		s.Mode = DefaultMode
	}
	if _, err := mac.ParseMode(s.Mode); err != nil {
		return s, fmt.Errorf("runspec: %w", err)
	}

	// Engine resolution: generated topologies, open-loop traffic and
	// an observe block need the event-driven protocol; hand-built
	// saturated scenarios default to the paper's epoch methodology. An
	// explicit epoch engine with an observe block is rejected below,
	// never silently overridden.
	switch s.Engine {
	case "":
		if s.Topo != "" || openLoop || !s.Observe.zero() {
			s.Engine = EngineProtocol
		} else {
			s.Engine = EngineEpoch
		}
	case EngineEpoch:
		if openLoop {
			return s, fmt.Errorf("runspec: traffic model %q needs the protocol engine, not epoch", s.Traffic)
		}
	case EngineProtocol:
	default:
		return s, fmt.Errorf("runspec: unknown engine %q (have %s, %s)", s.Engine, EngineEpoch, EngineProtocol)
	}

	// Engine-specific knobs: the one the engine cannot consume is an
	// error, so no flag or spec field is ever silently ignored.
	if s.Workers < 0 {
		return s, fmt.Errorf("runspec: workers %d is negative (0 selects all CPUs)", s.Workers)
	}
	if s.Engine == EngineEpoch {
		if s.Workers != 0 {
			return s, fmt.Errorf("runspec: workers is a protocol-engine knob; the epoch engine cannot shard its single collision domain")
		}
		if s.DurationS != 0 {
			return s, fmt.Errorf("runspec: duration_s is a protocol-engine knob; the epoch engine runs on epochs")
		}
		if s.Epochs == 0 {
			s.Epochs = DefaultEpochs
		}
		if s.Epochs < 1 {
			return s, fmt.Errorf("runspec: %d epochs is not positive", s.Epochs)
		}
	} else {
		if s.Epochs != 0 {
			return s, fmt.Errorf("runspec: epochs is an epoch-engine knob; the protocol engine runs on duration_s")
		}
		if s.DurationS == 0 {
			s.DurationS = DefaultDuration
		}
		if s.DurationS <= 0 {
			return s, fmt.Errorf("runspec: duration %g s is not positive", s.DurationS)
		}
	}

	// Dynamic population: churn and mobility need the protocol engine
	// (the epoch methodology has a fixed population) over a generated
	// uplink topology (arrivals attach to APs; hand-built scenarios and
	// ad-hoc generators have none to attach to). The association block
	// is canonicalized for dynamic runs — absent → the "nearest"
	// default, bias knob resolved against the registry — and rejected
	// for static ones, where no attachment decision ever happens.
	dynamic := s.Churn != nil || s.Mobility != nil
	if dynamic {
		if s.Engine != EngineProtocol {
			return s, fmt.Errorf("runspec: churn and mobility are protocol-engine knobs; the epoch engine has a fixed population")
		}
		if gen, ok := topo.ByName(s.Topo); s.Topo == "" || !ok || !gen.Uplink {
			return s, fmt.Errorf("runspec: a dynamic population needs a generated uplink topology (arriving stations associate with APs)")
		}
		if c := s.Churn; c != nil {
			if c.ArrivalPerS <= 0 {
				return s, fmt.Errorf("runspec: churn arrival rate %g stations/s is not positive", c.ArrivalPerS)
			}
			if c.MeanSessionS <= 0 {
				return s, fmt.Errorf("runspec: churn mean session %g s is not positive", c.MeanSessionS)
			}
		}
		if m := s.Mobility; m != nil {
			mob := *m
			if _, ok := topo.MobilityByName(mob.Model); !ok {
				return s, fmt.Errorf("runspec: unknown mobility model %q (have %v)", mob.Model, topo.MobilityNames())
			}
			if mob.SpeedMPS <= 0 {
				return s, fmt.Errorf("runspec: mobility speed %g m/s is not positive", mob.SpeedMPS)
			}
			if mob.IntervalS < 0 {
				return s, fmt.Errorf("runspec: mobility interval %g s is negative", mob.IntervalS)
			}
			if mob.IntervalS == 0 {
				mob.IntervalS = 1
			}
			s.Mobility = &mob
		}
		a := AssociationSpec{Policy: assoc.DefaultPolicy}
		if s.Association != nil {
			a = *s.Association
			if a.Policy == "" {
				a.Policy = assoc.DefaultPolicy
			}
		}
		cfg := assoc.Config{BiasDBPerAntenna: knob.Auto}
		if a.BiasDBPerAntenna != nil {
			cfg.BiasDBPerAntenna = *a.BiasDBPerAntenna
		}
		if _, err := assoc.New(a.Policy, cfg); err != nil {
			return s, fmt.Errorf("runspec: %w", err)
		}
		s.Association = &a
	} else if s.Association != nil {
		return s, fmt.Errorf("runspec: association is a dynamic-population knob; it needs churn or mobility to have a decision to make")
	}

	// Observability: protocol engine only (the epoch methodology has
	// no event stream), strictly validated, canonicalized — a zero
	// block normalizes to nil and the "all" metric selection expands
	// to the registry's sorted vocabulary.
	if s.Observe.zero() {
		s.Observe = nil
	} else {
		if s.Engine != EngineProtocol {
			return s, fmt.Errorf("runspec: observe is a protocol-engine block; the epoch engine has no event stream")
		}
		o := *s.Observe
		if o.ProbeIntervalS < 0 {
			return s, fmt.Errorf("runspec: probe interval %g s is negative", o.ProbeIntervalS)
		}
		if len(o.Metrics) == 1 && o.Metrics[0] == "all" {
			o.Metrics = obs.MetricNames()
		} else {
			for _, name := range o.Metrics {
				if !obs.ValidMetric(name) {
					return s, fmt.Errorf("runspec: unknown metric %q (have all, %v)", name, obs.MetricNames())
				}
			}
		}
		s.Observe = &o
	}

	seed := s.SeedValue()
	s.Seed = &seed
	return s, nil
}

// DecodeSpec parses a single Spec from JSON, rejecting unknown fields
// so typos fail loudly instead of silently running defaults.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("runspec: decode spec: %w", err)
	}
	return s, nil
}

// LoadSpec reads and decodes a Spec file. The path "-" reads the spec
// from standard input, so specs pipe between tools without a temp
// file.
func LoadSpec(path string) (Spec, error) {
	data, err := readInput(path)
	if err != nil {
		return Spec{}, err
	}
	return DecodeSpec(data)
}

// readInput reads a spec document from a file, or from stdin when the
// path is the conventional "-".
func readInput(path string) ([]byte, error) {
	if path == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, fmt.Errorf("runspec: read stdin: %w", err)
		}
		return data, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runspec: %w", err)
	}
	return data, nil
}
