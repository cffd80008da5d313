// Package serve is the long-running serving layer over the runspec
// API: a daemon that accepts specs over HTTP, normalizes and
// validates them through runspec, deduplicates executions by
// canonical-spec hash, schedules them on a bounded worker queue, and
// streams typed Reports back as JSON.
//
// The cache key is runspec.Spec.CanonicalHash — SHA-256 over the
// canonicalized spec JSON — which is a sound memoization identity
// because a Report is a pure function of its canonical spec: every
// RNG in a run derives from the spec's seed, Reports embed no
// timestamps, and the workers scheduling knob is canonicalized out of
// both the hash and the Report bytes. A repeated spec is served from
// memory; concurrent duplicates coalesce onto one execution
// (singleflight) and all read the same bytes.
//
// Backpressure is explicit: the execution queue is bounded, and a
// request that cannot be queued is rejected immediately (HTTP 429)
// instead of waiting unboundedly. Waiting requests honor their
// context — a client that disconnects detaches, and a queued job
// whose every waiter detached is skipped, never executed.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nplus/internal/obs"
	"nplus/internal/runspec"
)

// Serving-layer metric names, exposed by the /metrics snapshot in the
// same Series schema the simulator's own obs registry uses (domain is
// always 0 — the server is one domain).
const (
	// Counters.
	MetricRequestsRun    = "requests_run"    // POST /run requests accepted for processing
	MetricRequestsSweep  = "requests_sweep"  // POST /sweep requests accepted for processing
	MetricRunsExecuted   = "runs_executed"   // simulations actually run (misses that reached a worker)
	MetricCacheHits      = "cache_hits"      // requests served from the memoized report store
	MetricCacheMisses    = "cache_misses"    // requests that queued a new execution
	MetricCoalesced      = "coalesced"       // requests that joined an already in-flight execution
	MetricRejectedBusy   = "rejected_busy"   // requests rejected with 429 (queue full)
	MetricCancelled      = "cancelled"       // queued executions skipped because every waiter disconnected
	MetricSweepRows      = "sweep_rows"      // JSONL rows streamed by /sweep
	MetricCacheEvictions = "cache_evictions" // memoized reports evicted by the LRU bound

	// Gauges.
	MetricQueueDepth    = "queue_depth"      // executions waiting for a worker (sampled at snapshot)
	MetricInFlightRuns  = "inflight_runs"    // executions running right now (sampled at snapshot)
	MetricCachedReports = "cached_reports"   // memoized reports currently held (sampled at snapshot)
	MetricPeakQueue     = "peak_queue_depth" // peak queue depth over the server's lifetime
	MetricPeakInFlight  = "peak_inflight"    // peak concurrent executions over the server's lifetime

	// Histograms.
	MetricRunWallMs = "run_wall_ms" // wall-clock milliseconds per executed run
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrBusy means the bounded execution queue is full — the explicit
	// backpressure signal (429).
	ErrBusy = errors.New("serve: execution queue full")
	// ErrDraining means the server stopped admitting work (503).
	ErrDraining = errors.New("serve: server is draining")
)

// Config sizes the server. Zero values select the defaults.
type Config struct {
	// QueueDepth bounds how many executions may wait for a worker
	// (default 256). Requests beyond it are rejected with ErrBusy, so
	// overload surfaces as fast 429s instead of unbounded queueing.
	QueueDepth int
	// Workers is the number of concurrent executions (default
	// GOMAXPROCS). Each run may additionally parallelize internally
	// via its spec's workers field.
	Workers int
	// CacheCap bounds the memoized report store (default 4096
	// reports); least-recently-used entries are evicted beyond it.
	CacheCap int
	// Run executes one canonical spec (default runspec.Run). A test
	// seam: the serving machinery is independent of simulation cost.
	Run func(runspec.Spec) (*runspec.Report, error)
}

// entry is the singleflight + memoization record for one canonical
// hash: at most one execution per hash is ever in flight, and its
// report bytes are retained for future hits.
type entry struct {
	hash string
	// done closes when the execution finished; data/err are written
	// before the close and immutable after it.
	done chan struct{}
	data []byte
	err  error
	// waiters counts attached requests while the job is queued or
	// running (guarded by Server.mu). A queued job whose waiters drop
	// to zero before it starts is skipped.
	waiters int
	started bool
	// lruEl is the entry's position in the completed-report LRU.
	lruEl *list.Element
}

// job is one queued execution.
type job struct {
	spec runspec.Spec
	e    *entry
}

// ticket is a request's handle on an execution: either immediately
// served bytes (cache hit) or a registration to wait on.
type ticket struct {
	e *entry
	// data is non-nil on a cache hit.
	data []byte
	// Outcome flags for accounting: exactly one is set.
	hit, coalesced, queued bool
}

// Server is the spec-serving engine. It is safe for concurrent use;
// New starts its worker pool and Close drains it.
type Server struct {
	cfg Config
	run func(runspec.Spec) (*runspec.Report, error)

	queue chan job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	entries  map[string]*entry
	lru      *list.List // completed entries, front = most recent

	inflight atomic.Int64

	mmu     sync.Mutex
	metrics *obs.Metrics
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 4096
	}
	s := &Server{
		cfg:     cfg,
		run:     cfg.Run,
		queue:   make(chan job, cfg.QueueDepth),
		entries: map[string]*entry{},
		lru:     list.New(),
		metrics: obs.NewMetrics(),
	}
	if s.run == nil {
		s.run = runspec.Run
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close drains the server: no new work is admitted, every queued
// execution completes (so attached waiters get their bytes), and the
// workers exit. Safe to call once the HTTP listener has shut down.
func (s *Server) Close() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	// Queue sends happen under mu with a draining check, so closing
	// under the same lock cannot race a send.
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// attach resolves a canonical spec against the singleflight map: a
// completed entry is a cache hit, an in-flight entry coalesces, and
// an unknown hash queues a new execution (or fails with ErrBusy when
// the bounded queue is full).
func (s *Server) attach(n runspec.Spec, hash string) (ticket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ticket{}, ErrDraining
	}
	if e, ok := s.entries[hash]; ok {
		select {
		case <-e.done:
			// Completed entries in the map always carry data (failed
			// executions are removed before their done closes).
			s.lru.MoveToFront(e.lruEl)
			return ticket{data: e.data, hit: true}, nil
		default:
			e.waiters++
			return ticket{e: e, coalesced: true}, nil
		}
	}
	e := &entry{hash: hash, done: make(chan struct{}), waiters: 1}
	select {
	case s.queue <- job{spec: n, e: e}:
		s.entries[hash] = e
		s.gaugeMax(MetricPeakQueue, float64(len(s.queue)))
		return ticket{e: e, queued: true}, nil
	default:
		return ticket{}, ErrBusy
	}
}

// detach unregisters a waiter that gave up (client disconnect). It
// reports whether the execution was abandoned outright — the job was
// still queued and no other waiter remains — in which case the worker
// will skip it.
func (s *Server) detach(e *entry) (abandoned bool) {
	if e == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-e.done:
		return false // finished anyway; the entry is now a cache line
	default:
	}
	e.waiters--
	if e.waiters == 0 && !e.started {
		delete(s.entries, e.hash)
		return true
	}
	return false
}

// await blocks until the ticket's execution completes or the request
// context ends, whichever comes first.
func (s *Server) await(ctx context.Context, tk ticket) ([]byte, error) {
	if tk.data != nil {
		return tk.data, nil
	}
	select {
	case <-ctx.Done():
		if s.detach(tk.e) {
			s.count(MetricCancelled, 1)
		}
		return nil, ctx.Err()
	case <-tk.e.done:
		if tk.e.err != nil {
			return nil, tk.e.err
		}
		return tk.e.data, nil
	}
}

// worker executes queued jobs until the queue closes (drain).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		if j.e.waiters == 0 {
			// Every client disconnected while the job was queued; detach
			// already removed the entry, so just skip the work.
			s.mu.Unlock()
			continue
		}
		j.e.started = true
		s.mu.Unlock()

		cur := s.inflight.Add(1)
		s.gaugeMax(MetricPeakInFlight, float64(cur))
		//npvet:allow wallclock(wall-time histogram measures the host serving a run, not the simulation; results never read it)
		start := time.Now()
		data, err := s.execute(j)
		wallMs := float64(time.Since(start)) / float64(time.Millisecond) //npvet:allow wallclock(host wall time feeding the run_wall_ms histogram only)
		s.inflight.Add(-1)

		s.mu.Lock()
		j.e.data, j.e.err = data, err
		if err != nil {
			// Failures are not memoized: the next identical request
			// retries instead of replaying an error forever.
			delete(s.entries, j.e.hash)
		} else {
			j.e.lruEl = s.lru.PushFront(j.e)
			for s.lru.Len() > s.cfg.CacheCap {
				old := s.lru.Remove(s.lru.Back()).(*entry)
				delete(s.entries, old.hash)
				s.count(MetricCacheEvictions, 1)
			}
		}
		close(j.e.done)
		s.mu.Unlock()

		s.count(MetricRunsExecuted, 1)
		s.observe(MetricRunWallMs, wallMs)
	}
}

// execute runs one job and encodes its Report: the exact bytes
// `npsim -spec … -json > file` produces, the indented report plus the
// trailing newline. A panicking run becomes an error naming the
// canonical hash, so one bad spec fails its own requests instead of
// killing the daemon and every queued client.
func (s *Server) execute(j job) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			data, err = nil, fmt.Errorf("serve: run %s panicked: %v", j.e.hash, r)
		}
	}()
	rep, err := s.run(j.spec)
	if err != nil {
		return nil, err
	}
	if data, err = rep.JSON(); err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// count / observe / gaugeMax guard the obs registry, which is not
// concurrency-safe on its own (the simulator uses own-then-merge; the
// server genuinely shares one registry across requests). mmu may nest
// under mu — nothing takes mu while holding mmu.
func (s *Server) count(name string, delta int64) {
	s.mmu.Lock()
	s.metrics.Count(name, 0, delta)
	s.mmu.Unlock()
}

func (s *Server) observe(name string, v float64) {
	s.mmu.Lock()
	s.metrics.Observe(name, 0, v)
	s.mmu.Unlock()
}

func (s *Server) gaugeMax(name string, v float64) {
	s.mmu.Lock()
	s.metrics.GaugeMax(name, 0, v)
	s.mmu.Unlock()
}

// account books a ticket's cache outcome.
func (s *Server) account(tk ticket) {
	switch {
	case tk.hit:
		s.count(MetricCacheHits, 1)
	case tk.coalesced:
		s.count(MetricCoalesced, 1)
	case tk.queued:
		s.count(MetricCacheMisses, 1)
	}
}
