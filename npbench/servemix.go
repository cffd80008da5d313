package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"nplus/internal/serve"
)

// serve-mix drives one long-lived in-process npserve with the callers'
// session (see caller.go) over a seeded pool of sessions, each the
// repository's uplink200.json and delay-sweep.json under its own seeds.
// Sessions visit the pool in turn, the first pass with fresh seeds. The
// cache holds one session's specs and not the pool's, so every later
// visit finds its specs evicted by the LRU and runs them cold again.

const (
	mixSessions = 16 // sessions in the pool; 112 distinct specs
	// mixCacheCap holds the seven specs of the session in progress, so
	// its own repeats are hits, and a little more.
	mixCacheCap = 8
)

// mixConfig is the serving engine of serve-mix.
var mixConfig = serve.Config{Workers: clients, CacheCap: mixCacheCap}

// mixPool is serve-mix's input set, generated from the seed.
type mixPool struct {
	sessions []*session
	warm     []byte // a spec outside the pool, posted once in set-up
}

func genPool(seed int64, tiny bool) (*mixPool, error) {
	rng := rand.New(rand.NewSource(seed))
	specAt := func() ([]byte, error) { return loadServeRun(rng.Int63n(1<<31), tiny) }
	p := &mixPool{}
	for i := 0; i < mixSessions; i++ {
		run, err := specAt()
		if err != nil {
			return nil, err
		}
		sweep, err := loadSweep(rng.Int63n(1 << 31))
		if err != nil {
			return nil, err
		}
		ss, err := newSession(i, run, sweep)
		if err != nil {
			return nil, err
		}
		if err := ss.canonicalize(); err != nil {
			return nil, err
		}
		p.sessions = append(p.sessions, ss)
	}
	warm, err := specAt()
	if err != nil {
		return nil, err
	}
	p.warm = warm
	return p, nil
}

func runServeMix(b *bench) error {
	var pool *mixPool
	setup := func() error {
		p, err := genPool(b.cfg.seed, b.cfg.tiny)
		if err != nil {
			return err
		}
		h, err := startHarness(mixConfig)
		if err != nil {
			return err
		}
		r := h.do(request{path: "/run", body: p.warm}, new(bytes.Buffer))
		if err := h.close(); err != nil {
			return err
		}
		b.op(r.err == nil && r.status == 200, "set-up /run: status %d err %v", r.status, r.err)
		pool = p
		return nil
	}
	if err := b.timeSetup(setup); err != nil {
		return err
	}

	load := b.cfg.seconds * 75 / 100
	if b.cfg.trace {
		load = b.cfg.seconds * 40 / 100
	}
	replies, ls, st, err := b.mixLoad(pool, load)
	if err != nil {
		return err
	}

	// References: every pool session run locally, serially, after the
	// server has drained. The runs of the sessions' /run specs are the
	// workload's report samples; the sweep points, six small runs per
	// seed, would put the median on whichever seed's points it lands.
	var lt layerTrace
	var all []byte
	iter := 0
	onRun := func(lr localRun) error {
		if !lr.sweepPoint {
			ls.report = append(ls.report, ms(lr.dur))
			ls.allocMB = append(ls.allocMB, float64(lr.alloc.bytes)/mb)
			ls.allocs = append(ls.allocs, float64(lr.alloc.objects))
		}
		if b.cfg.trace {
			p, err := b.tracedIteration(lr.spec, lr.rep, iter)
			if err != nil {
				return fmt.Errorf("traced iteration: %w", err)
			}
			want, got := countsOfReport(lr.rep), countsOfResult(p.res)
			b.op(want == got && bytes.Equal(p.report, lr.data), "traced pipeline of pool spec %d differs: counts %+v vs %+v", iter, want, got)
			lt.addIteration(p, lr.dur)
			lt.counts.add(got)
		}
		all = append(all, sha(lr.data)...)
		iter++
		return nil
	}
	for _, ss := range pool.sessions {
		if err := ss.reference(onRun); err != nil {
			return err
		}
	}
	b.checkDigest(sha(all))
	// Sixteen Reports are few for a median; the /run specs run twice
	// more, and must give the same bytes.
	for rep := 0; rep < 2; rep++ {
		for _, ss := range pool.sessions {
			data, _, d, a, err := localIteration(ss.run)
			if err != nil {
				return fmt.Errorf("session %d spec: %w", ss.key, err)
			}
			b.op(sha(data) == ss.runRef, "session %d spec: repeated local run differs", ss.key)
			ls.report = append(ls.report, ms(d))
			ls.allocMB = append(ls.allocMB, float64(a.bytes)/mb)
			ls.allocs = append(ls.allocs, float64(a.objects))
		}
	}
	if ss := pool.sessions[0]; b.cfg.faults.reportDigest {
		ss.runRef = string(flipped([]byte(ss.runRef)))
	}

	for _, r := range replies {
		b.checkReply(r, pool.sessions[r.req.key], ls)
	}

	if !b.cfg.trace {
		b.setEndToEnd(ls)
		return nil
	}
	b.setServeLayer(st, ls.cold.p50(), ls.report.p50())
	b.setLayers(&lt)
	b.set("go.gc_cpu_share", gcShare(b.gcStart), "GC share of the CPU time spent over load and reference runs")
	return b.replays(pool.sessions[0].run)
}

// mixLoad replays pool sessions in turn against one engine for the load
// duration, and at least one pass over the pool, and returns the
// replies for checking once the references are known.
func (b *bench) mixLoad(pool *mixPool, load time.Duration) ([]response, *loopSamples, serveStats, error) {
	h, err := startHarness(mixConfig)
	if err != nil {
		return nil, nil, serveStats{}, err
	}
	ls := &loopSamples{}
	var replies []response
	b.gcStart = readGC()
	start := time.Now()
	n := 0
	for ; n < mixSessions || time.Since(start) < load; n++ {
		replies = append(replies, pool.sessions[n%mixSessions].replay(h)...)
	}
	ls.serveWall = time.Since(start)
	var st serveStats
	if b.cfg.trace {
		if st, err = h.snapshot(); err != nil {
			h.close()
			return nil, nil, serveStats{}, err
		}
		for _, ss := range pool.sessions {
			st.distinct += float64(ss.distinct)
		}
	}
	if err := h.close(); err != nil {
		return nil, nil, serveStats{}, err
	}
	fmt.Fprintf(b.cfg.out, "serve-mix: %d sessions, %d replies in %.2f s\n", n, len(replies), ls.serveWall.Seconds())
	return replies, ls, st, nil
}
