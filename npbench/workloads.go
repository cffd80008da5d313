package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"sort"

	"nplus/internal/runspec"
)

// workload is one named input set and the runner that drives it.
type workload struct {
	name        string
	defaultSeed int64
	run         func(*bench) error
}

//go:embed specs/*.json
var specFiles embed.FS

//go:embed digests.json
var digestsJSON []byte

// pinnedDigests maps each workload to the SHA-256 of its Report bytes
// at the workload's default seed (see digestOf for serve-mix).
var pinnedDigests = func() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("npbench: digests.json: " + err.Error())
	}
	return m
}()

var workloads = []workload{
	{name: "campus-build", defaultSeed: 7, run: specRunner("campus-build")},
	{name: "clique-mac", defaultSeed: 4, run: specRunner("clique-mac")},
	{name: "churn-dynamic", defaultSeed: 21, run: specRunner("churn-dynamic")},
	{name: "serve-mix", defaultSeed: 1, run: runServeMix},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	sort.Strings(out)
	return out
}

// loadSpec reads a spec workload's input file, replaces its seed, and
// in tiny mode shrinks it to a few dozen nodes and a short horizon.
func loadSpec(name string, seed int64, tiny bool) (runspec.Spec, error) {
	data, err := specFiles.ReadFile("specs/" + name + ".json")
	if err != nil {
		return runspec.Spec{}, err
	}
	s, err := runspec.DecodeSpec(data)
	if err != nil {
		return runspec.Spec{}, fmt.Errorf("%s: %w", name, err)
	}
	s.Seed = &seed
	if tiny {
		shrink(&s)
	}
	// The traced pipeline mirrors runspec.Run with core.DefaultOptions
	// and no observe block; a spec that needs either would not be
	// mirrored faithfully.
	if s.Options != nil || s.Observe != nil || s.Topo == "" {
		return runspec.Spec{}, fmt.Errorf("%s: workload specs use a generated topology with no options or observe block", name)
	}
	return s, nil
}

// loadServeRun reads the spec the serve sessions post to /run (a copy
// of examples/specs/uplink200.json) and replaces its seed.
func loadServeRun(seed int64, tiny bool) ([]byte, error) {
	data, err := specFiles.ReadFile("specs/serve-run.json")
	if err != nil {
		return nil, err
	}
	s, err := runspec.DecodeSpec(data)
	if err != nil {
		return nil, fmt.Errorf("serve-run: %w", err)
	}
	if tiny {
		shrink(&s)
	}
	s.Seed = &seed
	return json.Marshal(s)
}

// loadSweep reads the sweep document the serve sessions post (a copy
// of examples/specs/delay-sweep.json) and replaces its base seed.
func loadSweep(seed int64) ([]byte, error) {
	data, err := specFiles.ReadFile("specs/serve-sweep.json")
	if err != nil {
		return nil, err
	}
	sw, err := runspec.DecodeSweep(data)
	if err != nil {
		return nil, fmt.Errorf("serve-sweep: %w", err)
	}
	sw.Base.Seed = &seed
	return json.Marshal(sw)
}

// shrink scales a spec down for the package test.
func shrink(s *runspec.Spec) {
	s.Nodes = max(16, s.Nodes/16)
	if s.Clusters > 2 {
		s.Clusters = 2
	}
	s.DurationS /= 4
}
