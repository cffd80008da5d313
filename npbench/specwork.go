package main

import (
	"encoding/json"
	"fmt"
	"time"

	"nplus/internal/runspec"
	"nplus/internal/serve"
)

// Spec workloads first run one spec in a serial loop (spec bytes →
// Report bytes, as `npsim -spec … -json` does), then replay the
// callers' session as CI makes it: uplink200.json under the run's seed
// and delay-sweep.json with its file seed, against a fresh in-process
// npserve per session, as each CI job starts its own daemon. Posting
// the workload's own spec instead would make cold_ms_p50 a copy of
// report_ms_p50 with a fifth of its samples, and leave a handful of
// hits and sweeps per run, too few for a steady median. The phases do
// not interleave, so the serve sessions' garbage does not land in the
// timed local iterations.

const (
	// localShare is the share of the measured time given to the serial
	// loop; the serve sessions take the rest.
	localShare = 0.75
	// minReports and minSessions are the fewest loop iterations and
	// serve sessions a run takes, whatever its time.
	minReports, minSessions = 5, 3
	// setupReps is how often set-up is repeated to report its median.
	setupReps = 5
	// clients is the number of closed-loop clients, and the serving
	// engine's execution workers.
	clients = 2
)

// specConfig sizes the serving engine a spec workload is served from:
// npserve's defaults (the callers start it with no flags) with the
// execution workers capped at the two clients.
var specConfig = serve.Config{Workers: clients}

func specRunner(name string) func(*bench) error {
	return func(b *bench) error { return runSpec(b, name) }
}

// localIteration turns spec bytes into Report bytes: decode, run, and
// encode with the trailing newline npsim prints.
func localIteration(specBytes []byte) ([]byte, *runspec.Report, time.Duration, allocDelta, error) {
	m0 := readMem()
	start := time.Now()
	s, err := runspec.DecodeSpec(specBytes)
	if err != nil {
		return nil, nil, 0, allocDelta{}, err
	}
	rep, err := runspec.Run(s)
	if err != nil {
		return nil, nil, 0, allocDelta{}, err
	}
	data, err := rep.JSON()
	if err != nil {
		return nil, nil, 0, allocDelta{}, err
	}
	data = append(data, '\n')
	d := time.Since(start)
	return data, rep, d, allocSince(m0), nil
}

// timeSetup runs set-up setupReps times and records the median.
func (b *bench) timeSetup(setup func() error) error {
	var xs samples
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	b.set("setup_s", xs.p50(), fmt.Sprintf("median of %d", len(xs)))
	return nil
}

// loopSamples gathers the timings of the measured phase.
type loopSamples struct {
	report, allocMB, allocs samples
	hit, cold, sweep        samples
	resweep                 samples
	requests                int
	serveWall               time.Duration
}

// localOp runs and checks one serial loop iteration.
func (b *bench) localOp(specBytes []byte, ref string, ls *loopSamples) ([]byte, *runspec.Report, time.Duration) {
	data, rep, d, a, err := localIteration(specBytes)
	if err != nil {
		b.op(false, "local run: %v", err)
		return nil, nil, 0
	}
	got := sha(data)
	if b.cfg.faults.reportDigest && len(ls.report) == 1 {
		got = string(flipped([]byte(got)))
	}
	b.op(got == ref, "local Report %d: sha256 %s, reference %s", len(ls.report), got, ref)
	ls.report = append(ls.report, ms(d))
	ls.allocMB = append(ls.allocMB, float64(a.bytes)/mb)
	ls.allocs = append(ls.allocs, float64(a.objects))
	return data, rep, d
}

// serveSession replays one session against a fresh engine and returns
// the replies.
func (b *bench) serveSession(h *harness, ss *session, ls *loopSamples) []response {
	h.fresh()
	start := time.Now()
	rs := ss.replay(h)
	ls.serveWall += time.Since(start)
	return rs
}

// callerSession builds the callers' session under seed: uplink200.json
// with that seed and delay-sweep.json with its file seed, with their
// local reference digests. A sweep's time varies by up to half again
// between placements; serve-mix covers sixteen of them per run, and a
// single drawn placement here would make sweep_ms_p50 a property of the
// seed.
func callerSession(seed int64, tiny bool) (*session, error) {
	run, err := loadServeRun(seed, tiny)
	if err != nil {
		return nil, err
	}
	sweep, err := specFiles.ReadFile("specs/serve-sweep.json")
	if err != nil {
		return nil, err
	}
	ss, err := newSession(0, run, sweep)
	if err != nil {
		return nil, err
	}
	if err := ss.canonicalize(); err != nil {
		return nil, err
	}
	return ss, ss.reference(func(localRun) error { return nil })
}

// specInput is a spec workload's serial-loop input: the spec bytes and
// the digest of the Report bytes a local run gives.
type specInput struct {
	spec []byte
	ref  string
}

func loadSpecInput(name string, seed int64, tiny bool) (specInput, error) {
	spec, err := loadSpec(name, seed, tiny)
	if err != nil {
		return specInput{}, err
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return specInput{}, err
	}
	n, err := spec.Canonical()
	if err != nil {
		return specInput{}, err
	}
	if _, err := n.CanonicalHash(); err != nil {
		return specInput{}, err
	}
	rep, _, _, _, err := localIteration(data)
	if err != nil {
		return specInput{}, err
	}
	return specInput{spec: data, ref: sha(rep)}, nil
}

// serveSessions replays sessions against a fresh engine each until the
// deadline, and at least `least` of them, checking every reply.
func (b *bench) serveSessions(h *harness, ss *session, least int, deadline time.Time, ls *loopSamples) {
	for k := 0; k < least || time.Now().Before(deadline); k++ {
		for _, r := range b.serveSession(h, ss, ls) {
			b.checkReply(r, ss, ls)
		}
	}
}

func runSpec(b *bench, name string) error {
	var in specInput
	var ss *session
	setup := func() error {
		i, err := loadSpecInput(name, b.cfg.seed, b.cfg.tiny)
		if err != nil {
			return err
		}
		s, err := callerSession(b.cfg.seed, b.cfg.tiny)
		if err != nil {
			return err
		}
		if ss != nil {
			b.op(i.ref == in.ref && s.runRef == ss.runRef && s.sweepRef == ss.sweepRef, "set-up references differ between repetitions")
		}
		in, ss = i, s
		return nil
	}
	if err := b.timeSetup(setup); err != nil {
		return err
	}
	b.checkDigest(in.ref)

	h, err := startHarness(specConfig)
	if err != nil {
		return err
	}
	defer h.close()
	if b.cfg.trace {
		return b.traceSpec(h, in, ss)
	}

	var ls loopSamples
	start := time.Now()
	local := time.Duration(float64(b.cfg.seconds) * localShare)
	for len(ls.report) < minReports || time.Since(start) < local {
		b.localOp(in.spec, in.ref, &ls)
	}
	b.serveSessions(h, ss, minSessions, start.Add(b.cfg.seconds), &ls)
	b.setEndToEnd(&ls)
	return nil
}

// setEndToEnd records the end-to-end metrics of a measured phase.
func (b *bench) setEndToEnd(ls *loopSamples) {
	b.setTimes("report_ms", ls.report)
	b.set("alloc_mb_per_report", ls.allocMB.p50(), fmt.Sprintf("median of n=%d", len(ls.allocMB)))
	b.set("allocs_per_report", ls.allocs.p50(), fmt.Sprintf("median of n=%d", len(ls.allocs)))
	b.setTimes("hit_ms", ls.hit)
	b.setTimes("cold_ms", ls.cold)
	b.set("sweep_ms_p50", ls.sweep.p50(), fmt.Sprintf("n=%d, time to the last row", len(ls.sweep)))
	b.set("resweep_ms_p50", ls.resweep.p50(), fmt.Sprintf("n=%d, every point a hit", len(ls.resweep)))
	b.set("serve_req_per_s", float64(ls.requests)/ls.serveWall.Seconds(), fmt.Sprintf("%d requests, %d closed-loop clients", ls.requests, clients))
	rss, err := peakRSSMB()
	if err != nil {
		b.op(false, "%v", err)
	}
	b.set("peak_rss_mb", rss, "VmHWM")
}

// traceSpec is the traced run of a spec workload: paired untraced and
// traced iterations, then the per-call replays and two serve sessions.
func (b *bench) traceSpec(h *harness, in specInput, ss *session) error {
	var ls loopSamples
	var lt layerTrace
	b.gcStart = readGC()
	start := time.Now()
	budget := b.cfg.seconds * 55 / 100
	var rep *runspec.Report
	for iter := 0; ; iter++ {
		// Pairs alternate which side runs first, so heap state left by
		// the first does not bias the second. The traced side encodes
		// the latest untraced Report; every Report is byte-identical.
		var p *pipeOut
		var d time.Duration
		var err error
		if iter%2 == 1 {
			if p, err = b.tracedIteration(in.spec, rep, iter); err != nil {
				return fmt.Errorf("traced iteration: %w", err)
			}
		}
		if _, rep, d = b.localOp(in.spec, in.ref, &ls); rep == nil {
			return fmt.Errorf("untraced iteration failed")
		}
		if iter%2 == 0 {
			if p, err = b.tracedIteration(in.spec, rep, iter); err != nil {
				return fmt.Errorf("traced iteration: %w", err)
			}
		}
		b.op(sha(p.report) == in.ref, "traced iteration %d encoded bytes differ from the reference", iter)
		want, got := countsOfReport(rep), countsOfResult(p.res)
		b.op(want == got, "simulated counts differ: runspec.Run %+v, traced pipeline %+v", want, got)
		lt.addIteration(p, d)
		lt.counts = got
		if elapsed := time.Since(start); (elapsed >= budget && iter >= 4) || elapsed >= 2*b.cfg.seconds {
			break
		}
	}
	b.setLayers(&lt)
	b.set("go.gc_cpu_share", gcShare(b.gcStart), "GC share of the CPU time spent over the paired iterations")
	if err := b.replays(in.spec); err != nil {
		return err
	}

	var st serveStats
	for i := 0; i < 2; i++ {
		b.serveSessions(h, ss, 1, time.Time{}, &ls)
		snap, err := h.snapshot()
		if err != nil {
			return err
		}
		snap.distinct = float64(ss.distinct)
		st.add(snap)
	}
	// The cold /run is the session's spec; its local run time is what
	// the queue wait is measured against.
	var runs samples
	for i := 0; i < 5; i++ {
		data, _, d, _, err := localIteration(ss.run)
		if err != nil {
			return err
		}
		b.op(sha(data) == ss.runRef, "session spec: local run differs from its reference")
		runs = append(runs, ms(d))
	}
	b.setServeLayer(st, ls.cold.p50(), runs.p50())
	return nil
}
