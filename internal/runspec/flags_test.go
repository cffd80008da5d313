package runspec

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"nplus/internal/exp"
)

// parseKnobs binds the knob table on a fresh FlagSet and parses args.
func parseKnobs(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f
}

// specLeaves lists the JSON paths of every leaf field under t,
// descending into the nested blocks (churn.arrival_per_s, ...).
func specLeaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := prefix + strings.Split(f.Tag.Get("json"), ",")[0]
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, specLeaves(ft, name+".")...)
		} else {
			out = append(out, name)
		}
	}
	return out
}

// setLeaves records the JSON paths of v's non-zero leaves into set.
func setLeaves(v any, prefix string, set map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			setLeaves(sub, prefix+k+".", set)
		}
		return
	case float64:
		set[strings.TrimSuffix(prefix, ".")] = x != 0
	case string:
		set[strings.TrimSuffix(prefix, ".")] = x != ""
	case []any:
		set[strings.TrimSuffix(prefix, ".")] = len(x) > 0
	}
}

// TestEverySpecFieldHasAFlag keeps the knob table complete: every
// Spec leaf field is set by some flag, or is excluded here with the
// reason it has none. Which field a flag sets is observed, not
// declared — each flag is passed alone and the Spec it builds is
// diffed against the zero Spec.
func TestEverySpecFieldHasAFlag(t *testing.T) {
	excluded := map[string]string{
		"name":                          "a free-form sweep-point label; it never affects execution",
		"on_fraction":                   "bursty-model shape, calibrated; set it in a spec file",
		"cycle_sec":                     "bursty-model shape, calibrated; set it in a spec file",
		"options.join_threshold_db":     "§4 admission threshold, a calibration override for spec files",
		"options.alignment_space_error": "advertised-space error, a calibration override for spec files",
		"options.per_width":             "delivery waterfall width, a calibration override for spec files",
	}
	flagFor := map[string]string{}
	for _, k := range knobFlags {
		var s Spec
		if err := parseKnobs(t, "-"+k.name, "1").Apply(&s); err != nil {
			t.Fatalf("-%s: %v", k.name, err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		setLeaves(doc, "", set)
		n := 0
		for leaf, nonzero := range set {
			if nonzero {
				flagFor[leaf] = k.name
				n++
			}
		}
		if n == 0 {
			t.Errorf("-%s sets no Spec field", k.name)
		}
	}
	leaves := specLeaves(reflect.TypeOf(Spec{}), "")
	known := map[string]bool{}
	for _, leaf := range leaves {
		known[leaf] = true
		name, hasFlag := flagFor[leaf]
		reason, isExcluded := excluded[leaf]
		switch {
		case !hasFlag && !isExcluded:
			t.Errorf("spec field %q has no flag in the knob table and no exclusion", leaf)
		case hasFlag && isExcluded:
			t.Errorf("spec field %q is set by -%s but excluded (%s)", leaf, name, reason)
		}
	}
	for leaf := range excluded {
		if !known[leaf] {
			t.Errorf("exclusion %q names no Spec field", leaf)
		}
	}
}

// TestFlagsApply pins flag parsing through the table: the CI flag
// twin builds the checked-in spec, explicit zeros stay explicit,
// unset flags leave a file's fields alone, and the deployment
// selectors exclude each other.
func TestFlagsApply(t *testing.T) {
	file, err := LoadSpec("../../examples/specs/uplink200.json")
	if err != nil {
		t.Fatal(err)
	}
	var twin Spec
	err = parseKnobs(t, "-topo", "disk-uplink", "-nodes", "200", "-traffic", "poisson",
		"-rate", "100", "-duration", "0.02", "-mode", "nplus", "-seed", "4").Apply(&twin)
	if err != nil {
		t.Fatal(err)
	}
	want, err := file.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := twin.CanonicalHash(); err != nil || got != want {
		t.Fatalf("flag twin hash %s (%v), want the spec file's %s", got, err, want)
	}

	s := file
	if err := parseKnobs(t, "-seed", "0").Apply(&s); err != nil {
		t.Fatal(err)
	}
	if *file.Seed != 4 || s.Seed == nil || *s.Seed != 0 {
		t.Fatalf("-seed 0 over file seed %d gave %v, want 0", *file.Seed, s.Seed)
	}

	s = file
	if err := parseKnobs(t, "-mode", "80211n").Apply(&s); err != nil {
		t.Fatal(err)
	}
	want80211n := file
	want80211n.Mode = "80211n"
	if !reflect.DeepEqual(s, want80211n) {
		t.Fatalf("-mode touched other fields:\n%+v\nwant\n%+v", s, want80211n)
	}

	if err := parseKnobs(t, "-scenario", "trio", "-topo", "disk-uplink").Apply(&Spec{}); err == nil {
		t.Fatal("-scenario with -topo applied without error")
	}
	s = Spec{Topo: "disk-uplink"}
	if err := parseKnobs(t, "-scenario", "trio").Apply(&s); err != nil || s.Scenario != "trio" || s.Topo != "" {
		t.Fatalf("-scenario over a topo file: %+v (%v)", s, err)
	}

	s = Spec{}
	if err := parseKnobs(t, "-metrics", "wins,").Apply(&s); err != nil {
		t.Fatal(err)
	}
	if s.Observe == nil || !reflect.DeepEqual(s.Observe.Metrics, []string{"wins"}) {
		t.Fatalf("-metrics \"wins,\" gave %+v, want [wins]", s.Observe)
	}
}

// TestExpOverrides pins the registry path: table defaults never leak
// into the overrides, presence comes from the passed flags (so -seed
// 0 is an override), and a knob exp.Overrides lacks is rejected.
func TestExpOverrides(t *testing.T) {
	o, err := parseKnobs(t).ExpOverrides()
	if err != nil || o != (exp.Overrides{}) {
		t.Fatalf("no flags gave %+v (%v), want zero overrides", o, err)
	}
	o, err = parseKnobs(t, "-seed", "0", "-nodes", "30", "-topo", "grid-uplink").ExpOverrides()
	if err != nil {
		t.Fatal(err)
	}
	want := exp.Overrides{Seed: 0, Nodes: 30, Topo: "grid-uplink",
		Set: exp.OverrideSet{Seed: true, Nodes: true, Topo: true}}
	if o != want {
		t.Fatalf("overrides = %+v, want %+v", o, want)
	}
	if _, err := parseKnobs(t, "-mode", "80211n").ExpOverrides(); err == nil {
		t.Fatal("-mode became a registry override")
	}
}
