package runspec

import (
	"flag"
	"fmt"
	"strings"

	"nplus/internal/assoc"
	"nplus/internal/core"
	"nplus/internal/exp"
	"nplus/internal/mac"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

// knobFlag is one Spec knob's command-line flag. The table below is
// the only place a flag name is tied to a Spec field: every CLI binds
// it with BindFlags instead of declaring its own copy.
type knobFlag struct {
	name, usage string
	define      definer
	// exclusive marks the deployment selectors: passing more than one
	// is a usage error, since each clears the other's spec field.
	exclusive bool
	// override copies the knob from a flag-built Spec into the
	// registry experiments' overrides; nil for knobs exp.Overrides has
	// no field for.
	override func(o *exp.Overrides, s Spec)
}

// knobFlags is the knob table, in the order passed flags apply.
var knobFlags = []knobFlag{
	{name: "scenario", usage: "hand-built deployment, one of: " + strings.Join(core.ScenarioNames(), ", "), exclusive: true,
		define: stringFlag(DefaultScenario, func(s *Spec, v string) { s.Scenario, s.Topo = v, "" })},
	{name: "topo", usage: "generated deployment instead of -scenario, one of: " + strings.Join(topo.Names(), ", "), exclusive: true,
		define:   stringFlag("", func(s *Spec, v string) { s.Topo, s.Scenario = v, "" }),
		override: func(o *exp.Overrides, s Spec) { o.Topo, o.Set.Topo = s.Topo, true }},
	{name: "nodes", usage: "generated topology size (with -topo)",
		define:   intFlag(DefaultNodes, func(s *Spec, v int) { s.Nodes = v }),
		override: func(o *exp.Overrides, s Spec) { o.Nodes, o.Set.Nodes = s.Nodes, true }},
	{name: "clusters", usage: "spatial cells for clustered topologies (campus, multiroom)",
		define: intFlag(DefaultClusters, func(s *Spec, v int) { s.Clusters = v })},
	{name: "cluster-loss", usage: "inter-cluster attenuation in dB (clustered topologies; default: generator calibration)",
		define: floatFlag(0, func(s *Spec, v float64) { s.InterClusterLossDB = &v })},
	{name: "cs-threshold", usage: "carrier-sense hearing threshold in dB SNR (very low forces one collision domain)",
		define: floatFlag(core.DefaultOptions().CSThresholdDB, func(s *Spec, v float64) { block(&s.Options).CSThresholdDB = &v })},
	{name: "traffic", usage: "arrival model, one of: " + strings.Join(traffic.Names(), ", "),
		define:   stringFlag(traffic.Saturated, func(s *Spec, v string) { s.Traffic = v }),
		override: func(o *exp.Overrides, s Spec) { o.Traffic, o.Set.Traffic = s.Traffic, true }},
	{name: "rate", usage: "mean per-flow arrival rate, packets/s (open-loop models)",
		define: floatFlag(DefaultRatePPS, func(s *Spec, v float64) { s.RatePPS = v })},
	{name: "queue", usage: "per-station packet queue bound (open-loop models)",
		define: intFlag(DefaultQueueCap, func(s *Spec, v int) { s.QueueCap = v })},
	{name: "mode", usage: "MAC variant, one of: " + strings.Join(mac.ModeNames(), ", "),
		define: stringFlag(DefaultMode, func(s *Spec, v string) { s.Mode = v })},
	{name: "engine", usage: "execution engine: " + EngineEpoch + ", " + EngineProtocol + " (default: auto)",
		define: stringFlag("", func(s *Spec, v string) { s.Engine = v })},
	{name: "seed", usage: "placement seed",
		define:   int64Flag(DefaultSeed, func(s *Spec, v int64) { s.Seed = &v }),
		override: func(o *exp.Overrides, s Spec) { o.Seed, o.Set.Seed = *s.Seed, true }},
	{name: "epochs", usage: "contention rounds (epoch engine)",
		define:   intFlag(DefaultEpochs, func(s *Spec, v int) { s.Epochs = v }),
		override: func(o *exp.Overrides, s Spec) { o.Epochs, o.Set.Epochs = s.Epochs, true }},
	{name: "duration", usage: "virtual seconds (protocol engine)",
		define:   floatFlag(DefaultDuration, func(s *Spec, v float64) { s.DurationS = v }),
		override: func(o *exp.Overrides, s Spec) { o.Duration, o.Set.Duration = s.DurationS, true }},
	{name: "workers", usage: "worker pool for component-parallel protocol runs, 0 = all CPUs (results are identical at any value)",
		define: intFlag(0, func(s *Spec, v int) { s.Workers = v })},
	{name: "churn-rate", usage: "station arrival rate, stations/s — switches to a dynamic population (generated uplink topologies)",
		define: floatFlag(0, func(s *Spec, v float64) { block(&s.Churn).ArrivalPerS = v })},
	{name: "session", usage: "mean station session length in virtual seconds (with -churn-rate)",
		define: floatFlag(0, func(s *Spec, v float64) { block(&s.Churn).MeanSessionS = v })},
	{name: "mobility", usage: "station mobility model, one of: " + strings.Join(topo.MobilityNames(), ", "),
		define: stringFlag("", func(s *Spec, v string) { block(&s.Mobility).Model = v })},
	{name: "speed", usage: "station speed in m/s (with -mobility)",
		define: floatFlag(0, func(s *Spec, v float64) { block(&s.Mobility).SpeedMPS = v })},
	{name: "move-interval", usage: "position-update cadence in virtual seconds (with -mobility; 0 = 1 s)",
		define: floatFlag(0, func(s *Spec, v float64) { block(&s.Mobility).IntervalS = v })},
	{name: "assoc", usage: "association policy for dynamic runs, one of: " + strings.Join(assoc.Names(), ", "),
		define: stringFlag("", func(s *Spec, v string) { block(&s.Association).Policy = v })},
	{name: "assoc-bias", usage: "biased-sinr bias in dB per AP antenna beyond the first (with -assoc biased-sinr)",
		define: floatFlag(0, func(s *Spec, v float64) { block(&s.Association).BiasDBPerAntenna = &v })},
	{name: "events", usage: "write the typed protocol event stream to this file as JSONL (protocol engine)",
		define: stringFlag("", func(s *Spec, v string) { block(&s.Observe).Events = v })},
	{name: "metrics", usage: "comma-separated metrics for the report's metrics section, or \"all\" (protocol engine)",
		define: stringFlag("", func(s *Spec, v string) { block(&s.Observe).Metrics = splitList(v) })},
	{name: "probe", usage: "time-series probe cadence in virtual seconds: per-domain queue depth, in-flight transmissions, CW distribution (protocol engine, 0 = off)",
		define: floatFlag(0, func(s *Spec, v float64) { block(&s.Observe).ProbeIntervalS = v })},
}

// definer registers a knob's flag on a FlagSet and returns the setter
// that writes its parsed value onto a Spec.
type definer func(fs *flag.FlagSet, name, usage string) func(*Spec)

// typedFlag builds a definer from one flag.FlagSet method (String,
// Int, ...), the flag's default, and the Spec setter.
func typedFlag[T any](def func(*flag.FlagSet, string, T, string) *T, value T, set func(*Spec, T)) definer {
	return func(fs *flag.FlagSet, name, usage string) func(*Spec) {
		p := def(fs, name, value, usage)
		return func(s *Spec) { set(s, *p) }
	}
}

func stringFlag(value string, set func(*Spec, string)) definer {
	return typedFlag((*flag.FlagSet).String, value, set)
}

func intFlag(value int, set func(*Spec, int)) definer {
	return typedFlag((*flag.FlagSet).Int, value, set)
}

func int64Flag(value int64, set func(*Spec, int64)) definer {
	return typedFlag((*flag.FlagSet).Int64, value, set)
}

func floatFlag(value float64, set func(*Spec, float64)) definer {
	return typedFlag((*flag.FlagSet).Float64, value, set)
}

// block returns the optional block *p, allocating it on first use, so
// a flag fills one field of a block and leaves the rest to the spec.
func block[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// splitList parses a comma-separated flag value, dropping empty
// elements so "-metrics wins," and "-metrics ”" behave sensibly.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Flags is the knob table bound to one FlagSet.
type Flags struct {
	fs    *flag.FlagSet
	knobs []boundKnob
}

type boundKnob struct {
	*knobFlag
	apply func(*Spec)
}

// BindFlags registers every Spec knob on fs. A name fs already
// defines stays the caller's and the table skips it: npexp's own
// -workers sizes its trial pool, not a run's component pool.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	for i := range knobFlags {
		k := &knobFlags[i]
		if fs.Lookup(k.name) != nil {
			continue
		}
		f.knobs = append(f.knobs, boundKnob{k, k.define(fs, k.name, k.usage)})
	}
	return f
}

// passed returns the knobs the user set on the command line, in table
// order. Presence comes from the parsed flags, never from values, so
// an explicit -seed 0 is passed and an untouched default is not.
func (f *Flags) passed() []boundKnob {
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	var out []boundKnob
	for _, k := range f.knobs {
		if set[k.name] {
			out = append(out, k)
		}
	}
	return out
}

// Apply overrides s field-for-field with the knobs the user passed;
// every other field keeps what s (typically a loaded spec file)
// holds. The only error is a usage error: more than one deployment
// selector passed.
func (f *Flags) Apply(s *Spec) error {
	passed := f.passed()
	var exclusive []string
	for _, k := range passed {
		if k.exclusive {
			exclusive = append(exclusive, "-"+k.name)
		}
	}
	if len(exclusive) > 1 {
		return fmt.Errorf("%s are mutually exclusive", strings.Join(exclusive, " and "))
	}
	for _, k := range passed {
		k.apply(s)
	}
	return nil
}

// ExpOverrides maps the passed knobs onto registry-experiment
// overrides, read from a Spec the same flags build. A passed knob
// exp.Overrides has no field for is a usage error: the experiments
// would silently ignore it.
func (f *Flags) ExpOverrides() (exp.Overrides, error) {
	var o exp.Overrides
	var s Spec
	if err := f.Apply(&s); err != nil {
		return o, err
	}
	for _, k := range f.passed() {
		if k.override == nil {
			return o, fmt.Errorf("-%s applies to -spec runs only", k.name)
		}
		k.override(&o, s)
	}
	return o, nil
}
