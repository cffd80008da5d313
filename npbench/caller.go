package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"nplus/internal/runspec"
)

// The serve side of every workload replays the request sequence of the
// repository's own npserve callers: the CI serving smoke and
// examples/specs/serve-demo.sh. One session of that sequence is
//
//	run      POST /run of the spec file (cold: a miss, or coalesced)
//	client   POST /run of the normalized spec, as npsim -serve-url sends it (a hit)
//	rerun    POST /run of the spec file again (a hit)
//	sweep    POST /sweep of the delay-sweep document (cold)
//	resweep  POST /sweep of it again (every point a hit)
//
// serve-demo.sh makes the first four steps; CI makes all five and
// asserts that client and rerun are hits. Both closed-loop clients
// replay the same session in lockstep, so each cold step is one miss
// and one coalesced duplicate.

// step is one request kind of a session.
type step int

const (
	stepRun step = iota
	stepClient
	stepRerun
	stepSweep
	stepResweep
	numSteps
)

var stepNames = [numSteps]string{"run", "client", "rerun", "sweep", "resweep"}

// session is one replay of the caller sequence: its request bodies and
// the digests of the bytes a local run of each gives.
type session struct {
	key      int
	run      []byte // the spec as posted from its file
	client   []byte // the normalized spec npsim -serve-url posts
	sweep    []byte // the sweep document
	points   [][]byte
	runRef   string // SHA-256 of the local Report bytes
	sweepRef string // SHA-256 of the local sweep rows
	distinct int    // distinct canonical specs the session posts
}

// newSession builds a session's bodies from a spec and a sweep
// document.
func newSession(key int, run, sweep []byte) (*session, error) {
	s, err := runspec.DecodeSpec(run)
	if err != nil {
		return nil, err
	}
	norm, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	client, err := json.Marshal(norm)
	if err != nil {
		return nil, err
	}
	sw, err := runspec.DecodeSweepOrSpec(sweep)
	if err != nil {
		return nil, err
	}
	pts, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	ss := &session{key: key, run: run, client: client, sweep: sweep, distinct: 1 + len(pts)}
	for _, pt := range pts {
		d, err := json.Marshal(pt)
		if err != nil {
			return nil, err
		}
		ss.points = append(ss.points, d)
	}
	return ss, nil
}

// canonicalize decodes and hashes every spec the session posts, as the
// server does on admission.
func (ss *session) canonicalize() error {
	for _, data := range append([][]byte{ss.run, ss.client}, ss.points...) {
		s, err := runspec.DecodeSpec(data)
		if err != nil {
			return err
		}
		if _, err := s.CanonicalHash(); err != nil {
			return err
		}
	}
	return nil
}

// localRun is one local spec → Report iteration.
type localRun struct {
	sweepPoint bool // a point of the session's sweep, not its spec
	spec, data []byte
	rep        *runspec.Report
	dur        time.Duration
	alloc      allocDelta
}

// reference runs the session's spec and sweep points locally and
// records the digests the served bodies must match. Each local run is
// handed to onRun.
func (ss *session) reference(onRun func(localRun) error) error {
	data, err := ss.local(ss.run, false, onRun)
	if err != nil {
		return err
	}
	ss.runRef = sha(data)
	return ss.referenceSweep(onRun)
}

// referenceSweep records the digest of the session's sweep rows.
func (ss *session) referenceSweep(onRun func(localRun) error) error {
	var rows []byte
	for _, pt := range ss.points {
		data, err := ss.local(pt, true, onRun)
		if err != nil {
			return err
		}
		row, err := sweepRow(data)
		if err != nil {
			return err
		}
		rows = append(rows, row...)
	}
	ss.sweepRef = sha(rows)
	return nil
}

func (ss *session) local(spec []byte, sweepPoint bool, onRun func(localRun) error) ([]byte, error) {
	data, rep, d, a, err := localIteration(spec)
	if err != nil {
		return nil, fmt.Errorf("session %d: %w", ss.key, err)
	}
	return data, onRun(localRun{sweepPoint: sweepPoint, spec: spec, data: data, rep: rep, dur: d, alloc: a})
}

// sweepRow is the /sweep row of a Report: its compact JSON line.
func sweepRow(report []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, report); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// replay runs one session against the harness's current engine and
// returns every reply, in order.
func (ss *session) replay(h *harness) []response {
	bodies := [numSteps][]byte{ss.run, ss.client, ss.run, ss.sweep, ss.sweep}
	var out []response
	for st := step(0); st < numSteps; st++ {
		path := "/run"
		if st >= stepSweep {
			path = "/sweep"
		}
		rq := request{path: path, body: bodies[st], key: ss.key, step: st}
		out = append(out, h.round(rq, rq)...)
	}
	return out
}

// checkReply books one served response against its session's reference
// digests and, if it matches, files its latency by step. The client and
// rerun steps must be cache hits, as the CI smoke asserts.
func (b *bench) checkReply(r response, ss *session, ls *loopSamples) {
	want := ss.runRef
	if r.req.path == "/sweep" {
		want = ss.sweepRef
	}
	if b.cfg.faults.servedBody && ls.requests == 0 {
		r.digest = string(flipped([]byte(r.digest)))
	}
	mustHit := r.req.step == stepClient || r.req.step == stepRerun
	ok := r.err == nil && r.status == 200 && r.digest == want && (!mustHit || r.cache == "hit")
	b.op(ok, "session %d %s %s: status %d err %v X-Cache %q, %d bytes sha256 %s, reference %s",
		ss.key, stepNames[r.req.step], r.req.path, r.status, r.err, r.cache, r.size, r.digest, want)
	ls.requests++
	if !ok {
		return
	}
	switch r.req.step {
	case stepRun, stepClient, stepRerun:
		if r.cache == "hit" {
			ls.hit = append(ls.hit, ms(r.dur))
		} else {
			ls.cold = append(ls.cold, ms(r.dur))
		}
	case stepSweep:
		ls.sweep = append(ls.sweep, ms(r.dur))
	case stepResweep:
		ls.resweep = append(ls.resweep, ms(r.dur))
	}
}
