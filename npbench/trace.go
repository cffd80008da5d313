package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nplus/internal/core"
	"nplus/internal/knob"
	"nplus/internal/mac"
	"nplus/internal/runspec"
	"nplus/internal/testbed"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

// span is one timed call into a layer. Spans of one traced iteration
// share Iter; Parent is the enclosing span's ID, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1024)}
}

func (r *recorder) begin(name string, parent, iter int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Iter: iter, Name: name, Start: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.epoch)) }

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

// pipeOut is what one traced iteration produced.
type pipeOut struct {
	res        *core.TrafficResult
	nodes      int
	components int
	build, run allocDelta
	report     []byte
}

// tracedIteration runs the layers of runspec.Run as separate public
// calls, in runspec.Run's order, each inside a span under one root span. The report assembly
// inside runspec.Run is not public; its per-flow LinkSNRDB reads are
// mirrored, and rep (the Report of the paired untraced iteration,
// byte-identical by the correctness check) is what gets encoded.
func (b *bench) tracedIteration(specBytes []byte, rep *runspec.Report, iter int) (*pipeOut, error) {
	r := b.rec
	out := &pipeOut{}
	root := r.begin("iteration", -1, iter)

	sp := r.begin("runspec.decode", root, iter)
	s, err := runspec.DecodeSpec(specBytes)
	if err != nil {
		return nil, err
	}
	n, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	if _, err := n.CanonicalHash(); err != nil {
		return nil, err
	}
	r.end(sp)
	tr, err := trafficRun(n)
	if err != nil {
		return nil, err
	}

	sp = r.begin("topo.generate", root, iter)
	gc := topo.GenConfig{Nodes: n.Nodes, Clusters: n.Clusters, InterClusterLossDB: topo.Auto}
	if n.InterClusterLossDB != nil {
		gc.InterClusterLossDB = *n.InterClusterLossDB
	}
	layout, err := topo.Generate(n.Topo, gc, rand.New(rand.NewSource(n.SeedValue())))
	if err != nil {
		return nil, err
	}
	r.end(sp)

	m0 := readMem()
	sp = r.begin("core.build", root, iter)
	net, err := core.NewNetworkFromLayout(n.SeedValue(), layout, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	r.end(sp)
	out.build = allocSince(m0)

	sp = r.begin("mac.hearing", root, iter)
	out.components = net.HearingGraph().NumComponents()
	r.end(sp)

	m0 = readMem()
	sp = r.begin("core.run", root, iter)
	res, err := net.RunTraffic(tr)
	if err != nil {
		return nil, err
	}
	r.end(sp)
	out.run = allocSince(m0)

	sp = r.begin("runspec.link_snr", root, iter)
	reportLinkSNRs(net, res)
	r.end(sp)

	sp = r.begin("runspec.encode", root, iter)
	data, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	r.end(sp)
	r.end(root)

	out.res, out.nodes = res, len(layout.Nodes)
	out.report = append(data, '\n')
	return out, nil
}

// trafficRun mirrors the TrafficRun runspec.Run builds from a
// canonical protocol-engine spec.
func trafficRun(n runspec.Spec) (core.TrafficRun, error) {
	if n.Engine != runspec.EngineProtocol {
		return core.TrafficRun{}, fmt.Errorf("workload specs run the protocol engine, got %q", n.Engine)
	}
	mode, err := mac.ParseMode(n.Mode)
	if err != nil {
		return core.TrafficRun{}, err
	}
	tr := core.TrafficRun{
		Mode:       mode,
		Duration:   n.DurationS,
		Model:      n.Traffic,
		RatePPS:    n.RatePPS,
		QueueCap:   n.QueueCap,
		OnFraction: traffic.Auto,
		CycleSec:   traffic.Auto,
		Workers:    n.Workers,
	}
	if n.OnFraction != nil {
		tr.OnFraction = *n.OnFraction
	}
	if n.CycleSec != nil {
		tr.CycleSec = *n.CycleSec
	}
	if c := n.Churn; c != nil {
		tr.Churn = &core.ChurnConfig{ArrivalPerS: c.ArrivalPerS, MeanSessionS: c.MeanSessionS}
	}
	if m := n.Mobility; m != nil {
		tr.Mobility = &core.MobilityConfig{Model: m.Model, SpeedMPS: m.SpeedMPS, IntervalS: m.IntervalS}
	}
	if a := n.Association; a != nil {
		tr.Assoc = &core.AssocConfig{Policy: a.Policy, BiasDBPerAntenna: knob.Auto}
		if a.BiasDBPerAntenna != nil {
			tr.Assoc.BiasDBPerAntenna = *a.BiasDBPerAntenna
		}
	}
	return tr, nil
}

// reportLinkSNRs makes the per-flow LinkSNRDB reads report assembly
// makes: every flow of the run whose transmitter is still deployed.
func reportLinkSNRs(net *core.Network, res *core.TrafficResult) {
	defs := res.FlowDefs
	if defs == nil {
		defs = make(map[int]mac.Flow, len(net.Flows))
		for _, f := range net.Flows {
			defs[f.ID] = f
		}
	}
	ids := make([]int, 0, len(res.PerFlow))
	for id := range res.PerFlow {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		def := defs[id]
		if _, live := net.Deployment.Nodes[def.Tx]; live {
			net.Deployment.LinkSNRDB(def.Tx, def.Rx)
		}
	}
}

// simCounts are the simulated totals; they must repeat exactly between
// the Report of runspec.Run and the traced pipeline's result.
type simCounts struct {
	wins, joins, served, drops, residual int64
	components                           int
	arrivals, departures, handoffs       int
}

func countsOfReport(rep *runspec.Report) simCounts {
	c := simCounts{
		wins: rep.Totals.Wins, joins: rep.Totals.Joins, served: rep.Totals.Served,
		drops: rep.Totals.Drops, residual: rep.Totals.Residual,
	}
	if rep.Spatial != nil {
		c.components = rep.Spatial.Components
	}
	if ch := rep.Churn; ch != nil {
		c.arrivals, c.departures, c.handoffs = ch.Arrivals, ch.Departures, ch.Handoffs
	}
	return c
}

func countsOfResult(res *core.TrafficResult) simCounts {
	var c simCounts
	for _, fs := range res.PerFlow {
		c.wins += fs.Wins
		c.joins += fs.Joins
		c.served += fs.Served
		c.drops += fs.Drops
		c.residual += fs.Residual()
	}
	c.components = res.Components
	if ch := res.Churn; ch != nil {
		c.arrivals, c.departures, c.handoffs = ch.Arrivals, ch.Departures, ch.Handoffs
	}
	return c
}

func (c *simCounts) add(o simCounts) {
	c.wins += o.wins
	c.joins += o.joins
	c.served += o.served
	c.drops += o.drops
	c.residual += o.residual
	c.components += o.components
	c.arrivals += o.arrivals
	c.departures += o.departures
	c.handoffs += o.handoffs
}

// layerTrace gathers a traced run's per-iteration layer measurements.
type layerTrace struct {
	untraced   samples // paired untraced iteration wall times, ms
	nodes      samples
	components samples
	buildMB    samples
	buildObjs  samples
	runMB      samples
	runObjs    samples
	reportKB   samples
	// counts are the simulated totals of the distinct specs traced;
	// servedAll counts packets served over every traced iteration.
	counts    simCounts
	servedAll int64
}

func (lt *layerTrace) addIteration(p *pipeOut, untraced time.Duration) {
	lt.untraced = append(lt.untraced, ms(untraced))
	lt.nodes = append(lt.nodes, float64(p.nodes))
	lt.components = append(lt.components, float64(p.components))
	lt.buildMB = append(lt.buildMB, float64(p.build.bytes)/mb)
	lt.buildObjs = append(lt.buildObjs, float64(p.build.objects))
	lt.runMB = append(lt.runMB, float64(p.run.bytes)/mb)
	lt.runObjs = append(lt.runObjs, float64(p.run.objects))
	lt.reportKB = append(lt.reportKB, float64(len(p.report))/1024)
	lt.servedAll += countsOfResult(p.res).served
}

// selfTimes returns, per span name, the self time of each occurrence
// (its duration minus its children's), and per root the layer sum and
// the largest stretch of the root not covered by a child.
func (r *recorder) selfTimes() (map[string]samples, []time.Duration, string) {
	children := map[int][]int{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := map[string]samples{}
	var layerSums []time.Duration
	worst, worstAt := time.Duration(-1), ""
	for _, s := range r.spans {
		kids := children[s.ID]
		var covered time.Duration
		prevEnd, prevName := s.Start, "start"
		for _, k := range kids {
			c := r.spans[k]
			covered += c.dur()
			if gap := time.Duration(c.Start - prevEnd); gap > worst {
				worst, worstAt = gap, prevName+" and "+c.Name
			}
			prevEnd, prevName = c.End, c.Name
		}
		if len(kids) > 0 {
			if gap := time.Duration(s.End - prevEnd); gap > worst {
				worst, worstAt = gap, prevName+" and the end"
			}
		}
		self[s.Name] = append(self[s.Name], ms(s.dur()-covered))
		if s.Parent < 0 {
			layerSums = append(layerSums, covered)
		}
	}
	return self, layerSums, fmt.Sprintf("%s (%.1f us)", worstAt, us(worst))
}

// setLayers records the per-layer metrics of the traced iterations and
// checks the accounting: the layer self times of a traced iteration
// should add up to the wall time of the untraced iteration it is
// paired with, within the tracing overhead; a larger gap is work no
// layer span covers, and is named.
func (b *bench) setLayers(lt *layerTrace) {
	self, layerSums, worstGap := b.rec.selfTimes()
	p := func(name string) float64 { return self[name].p50() }
	n := len(self["iteration"])
	note := fmt.Sprintf("median of %d traced iterations", n)
	b.set("runspec.decode_us", p("runspec.decode")*1000, note)
	b.set("runspec.encode_ms", p("runspec.encode"), note)
	b.set("runspec.report_kb", lt.reportKB.p50(), note)
	b.set("runspec.link_snr_ms", p("runspec.link_snr"), note)
	b.set("topo.generate_ms", p("topo.generate"), note)
	build := p("core.build")
	b.set("core.build_ms", build, note)
	b.set("core.build_alloc_mb", lt.buildMB.p50(), note)
	b.set("core.build_allocs", lt.buildObjs.p50(), note)
	b.set("core.build_us_per_node", build*1000/lt.nodes.p50(), fmt.Sprintf("%.0f nodes", lt.nodes.p50()))
	b.set("mac.hearing_ms", p("mac.hearing"), note)
	b.set("mac.hearing_components", lt.components.p50(), "")
	run := p("core.run")
	b.set("core.run_ms", run, note)
	b.set("core.run_alloc_mb", lt.runMB.p50(), note)
	b.set("core.run_allocs", lt.runObjs.p50(), note)

	c := lt.counts
	runAll := 0.0
	for _, t := range self["core.run"] {
		runAll += t
	}
	b.set("core.run_us_per_served", runAll*1000/float64(max(lt.servedAll, 1)), fmt.Sprintf("%d packets served over the traced iterations", lt.servedAll))
	b.set("mac.wins", float64(c.wins), "")
	b.set("mac.joins", float64(c.joins), "")
	b.set("mac.served", float64(c.served), "")
	b.set("mac.drops", float64(c.drops), "")
	b.set("mac.residual", float64(c.residual), "")
	ratio := 0.0
	if c.wins+c.joins > 0 {
		ratio = float64(c.joins) / float64(c.wins+c.joins)
	}
	b.set("mac.join_ratio", ratio, "joins / (wins + joins)")
	b.set("core.components", float64(c.components), "")
	b.set("core.churn_arrivals", float64(c.arrivals), "")
	b.set("core.churn_departures", float64(c.departures), "")
	b.set("core.churn_handoffs", float64(c.handoffs), "")

	// Tracing overhead: what a traced iteration spends outside its layer
	// spans (span bookkeeping, memstats reads, glue) plus the cost of
	// the span records inside them.
	outside := self["iteration"].p50()
	perIter := len(b.rec.spans) / n
	overheadUS := outside*1000 + us(spanCost())*float64(perIter)
	b.set("trace.overhead_us", overheadUS, fmt.Sprintf("%.1f us outside layer spans + %d span records", outside*1000, perIter))

	var gaps samples
	for i, sum := range layerSums {
		if i < len(lt.untraced) {
			gaps = append(gaps, lt.untraced[i]-ms(sum))
		}
	}
	gap := gaps.p50()
	b.set("trace.unaccounted_ms", gap, "untraced iteration wall minus layer self times, median over pairs")

	// The pairs' own spread is the noise a gap must exceed to be real.
	s := gaps.sorted()
	noise := s[(3*len(s))/4] - s[len(s)/4]
	fmt.Fprintf(b.cfg.out, "accounting: untraced iteration p50 %.3f ms, layer self-time sum p50 %.3f ms, gap %.3f ms (IQR over %d pairs %.3f ms), tracing overhead %.1f us; largest stretch between spans: %s\n",
		lt.untraced.p50(), samples(durMs(layerSums)).p50(), gap, len(gaps), noise, overheadUS, worstGap)
	tol := overheadUS/1000 + noise
	switch {
	case gap > tol:
		fmt.Fprintf(b.cfg.out, "accounting: UNMEASURED LAYER: %.3f ms per iteration inside runspec.Run is covered by no layer span: report assembly beyond its LinkSNRDB reads, and spec normalization (exceeds overhead + noise %.3f ms)\n", gap, tol)
	case gap < -tol:
		fmt.Fprintf(b.cfg.out, "accounting: layer spans exceed the untraced iteration by %.3f ms: the traced pipeline does work runspec.Run does not (beyond overhead + noise %.3f ms)\n", -gap, tol)
	default:
		fmt.Fprintf(b.cfg.out, "accounting: layer self times add up to the untraced iteration within overhead + noise (%.3f ms)\n", tol)
	}
}

func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// spanCost measures one begin/end pair on a scratch recorder.
func spanCost() time.Duration {
	const n = 20000
	r := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("x", -1, i))
	}
	return time.Since(start) / n
}

// freshNetwork builds a spec's network outside any span and reports
// the live heap the build leaves behind, measured between two
// collections. The per-call replays run on it, never on a network a
// run has already mutated.
func freshNetwork(specBytes []byte) (*core.Network, float64, error) {
	s, err := runspec.DecodeSpec(specBytes)
	if err != nil {
		return nil, 0, err
	}
	n, err := s.Canonical()
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	before := readMem().HeapAlloc
	net, err := runspec.BuildNetwork(n)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	after := readMem().HeapAlloc
	return net, (float64(after) - float64(before)) / mb, nil
}

// replays records the retained heap of a fresh build of specBytes and
// runs the planner rounds and the dynamic replay on that network.
func (b *bench) replays(specBytes []byte) error {
	net, retained, err := freshNetwork(specBytes)
	if err != nil {
		return err
	}
	b.set("core.build_retained_mb", retained, "live heap after one build, between two collections")
	if err := b.planRounds(net, b.cfg.seed, 64); err != nil {
		return err
	}
	return b.dynamicReplay(net, b.cfg.seed, 24)
}

// planRounds times seeded contention rounds on a network: a primary
// PlanBest plus a secondary join by another transmitter of the same
// collision domain. A primary must always be planned; a joiner that
// cannot transmit without harming the primary is blocked, as in the
// protocol, and the round still counts.
func (b *bench) planRounds(net *core.Network, seed int64, rounds int) error {
	sc, err := net.Scenario(99)
	if err != nil {
		return err
	}
	g := net.HearingGraph()
	byComp := map[int][]mac.Flow{}
	for _, f := range net.Flows {
		c := g.ComponentOf(f.Tx)
		byComp[c] = append(byComp[c], f)
	}
	rng := rand.New(rand.NewSource(seed))
	var times, allocs samples
	blocked := 0
	for len(times) < rounds {
		prim := net.Flows[rng.Intn(len(net.Flows))]
		var cands []mac.Flow
		for _, f := range byComp[g.ComponentOf(prim.Tx)] {
			if f.Tx != prim.Tx {
				cands = append(cands, f)
			}
		}
		if len(cands) == 0 {
			continue
		}
		join := cands[rng.Intn(len(cands))]
		m0 := readMem()
		start := time.Now()
		group, err := sc.PlanBest(mac.JoinRequest{Dests: []mac.Flow{prim}}, nil, false, true)
		var joinErr error
		if err == nil {
			_, joinErr = sc.PlanBest(mac.JoinRequest{Dests: []mac.Flow{join}}, group, false, false)
		}
		d := time.Since(start)
		a := allocSince(m0)
		b.op(err == nil, "plan round: primary tx %d: %v", prim.Tx, err)
		if joinErr != nil {
			blocked++
		}
		times = append(times, us(d))
		allocs = append(allocs, float64(a.objects))
	}
	note := fmt.Sprintf("median of %d seeded rounds, %d joiners blocked", len(times), blocked)
	b.set("mac.plan_round_us", times.p50(), note)
	b.set("mac.plan_round_allocs", allocs.p50(), note)
	return nil
}

// dynamicReplay times the incremental deployment and hearing-graph
// updates a churning run makes, per call, over a seeded sequence of
// move / link read / remove / re-add on a network's deployment.
func (b *bench) dynamicReplay(net *core.Network, seed int64, victims int) error {
	d := net.Deployment
	g := net.HearingGraph()
	hears := d.HearsFunc(core.DefaultOptions().CSThresholdDB)
	ids := append([]mac.NodeID(nil), d.LiveIDs()...)
	rng := rand.New(rand.NewSource(seed))
	var add, move, remove, snr, hearing samples
	timed := func(into *samples, f func() error) error {
		start := time.Now()
		err := f()
		*into = append(*into, us(time.Since(start)))
		return err
	}
	for k := 0; k < victims; k++ {
		id := ids[rng.Intn(len(ids))]
		spec, home := d.Nodes[id], d.Position[id]
		to := testbed.Point{X: home.X + 10*rng.Float64() - 5, Y: home.Y + 10*rng.Float64() - 5}
		if err := timed(&move, func() error { return d.MoveNode(rng, id, to) }); err != nil {
			return fmt.Errorf("replay move: %w", err)
		}
		_ = timed(&hearing, func() error { g.UpdateNode(id, hears); return nil })
		// Reads to peers the moved node hears, as association reads its
		// candidate APs: their channels were invalidated by the move.
		peers := g.Components()[g.ComponentOf(id)]
		for j := 0; j < 4; j++ {
			peer := peers[rng.Intn(len(peers))]
			if peer != id {
				_ = timed(&snr, func() error { d.LinkSNRDB(id, peer); return nil })
			}
		}
		if err := timed(&remove, func() error { return d.RemoveNode(id) }); err != nil {
			return fmt.Errorf("replay remove: %w", err)
		}
		_ = timed(&hearing, func() error { g.RemoveNode(id); return nil })
		if err := timed(&add, func() error { return d.AddNodeAt(rng, spec, home) }); err != nil {
			return fmt.Errorf("replay add: %w", err)
		}
		_ = timed(&hearing, func() error { g.AddNode(id, hears); return nil })
	}
	note := fmt.Sprintf("median per call, %d seeded victims", victims)
	b.set("testbed.add_us", add.p50(), note)
	b.set("testbed.move_us", move.p50(), note)
	b.set("testbed.remove_us", remove.p50(), note)
	b.set("testbed.link_snr_us", snr.p50(), fmt.Sprintf("median of %d reads after moves", len(snr)))
	b.set("mac.hearing_update_us", hearing.p50(), fmt.Sprintf("median of %d UpdateNode/RemoveNode/AddNode calls", len(hearing)))
	return nil
}
