package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nplus/internal/obs"
	"nplus/internal/serve"
)

// harness is an in-process npserve behind a loopback HTTP listener.
// The serving engine behind the listener can be swapped for a fresh
// one (an empty cache) between rounds.
type harness struct {
	cfg    serve.Config
	hs     *http.Server
	served chan error
	cur    atomic.Pointer[backend]
	client *http.Client
	base   string
	bufs   []*bytes.Buffer // one reply buffer per client
}

type backend struct {
	srv *serve.Server
	h   http.Handler
}

func newBackend(cfg serve.Config) *backend {
	srv := serve.New(cfg)
	return &backend{srv: srv, h: srv.Handler(false)}
}

func startHarness(cfg serve.Config) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		cfg:    cfg,
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		base:   "http://" + ln.Addr().String(),
	}
	h.cur.Store(newBackend(cfg))
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.cur.Load().h.ServeHTTP(w, r)
	})}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// fresh replaces the serving engine with an empty one and drains the
// old one. No request may be in flight.
func (h *harness) fresh() {
	old := h.cur.Swap(newBackend(h.cfg))
	old.srv.Close()
}

// close shuts the listener down, waits for the serve loop to return,
// and drains the serving engine.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.cur.Load().srv.Close()
	h.client.CloseIdleConnections()
	return err
}

// request is one HTTP call a client makes.
type request struct {
	path string // "/run" or "/sweep"
	body []byte
	key  int  // the session the request belongs to
	step step // the request's step in its session
}

// response is what came back, timed from send to the last body byte.
// The body is kept only as its SHA-256: clients read into reused
// buffers, so the benchmark's own garbage stays out of the latencies
// it measures, and round hashes them once every client is done, so the
// hashing does not compete with a reply still in flight.
type response struct {
	req    request
	status int
	cache  string
	digest string
	size   int
	dur    time.Duration
	err    error
}

// do sends one request, reading the reply into buf.
func (h *harness) do(req request, buf *bytes.Buffer) response {
	start := time.Now()
	resp, err := h.client.Post(h.base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return response{req: req, err: err, dur: time.Since(start)}
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	dur := time.Since(start)
	return response{
		req:    req,
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Cache"),
		size:   buf.Len(),
		dur:    dur,
		err:    err,
	}
}

// round sends one request per closed-loop client at the same moment and
// waits for every reply: each client issues its next request only once
// the round is over.
func (h *harness) round(reqs ...request) []response {
	for len(h.bufs) < len(reqs) {
		h.bufs = append(h.bufs, new(bytes.Buffer))
	}
	out := make([]response, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = h.do(rq, h.bufs[i])
		}()
	}
	wg.Wait()
	for i := range out {
		out[i].digest = sha(h.bufs[i].Bytes())
	}
	return out
}

// snapshot reads GET /metrics of the current serving engine.
func (h *harness) snapshot() (serveStats, error) {
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return serveStats{}, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return serveStats{}, fmt.Errorf("GET /metrics: %w", err)
	}
	var st serveStats
	for _, s := range snap.Series {
		switch s.Name {
		case serve.MetricCacheHits:
			st.hits = s.Value
		case serve.MetricCacheMisses:
			st.misses = s.Value
		case serve.MetricCoalesced:
			st.coalesced = s.Value
		case serve.MetricRunsExecuted:
			st.runs = s.Value
		case serve.MetricCacheEvictions:
			st.evictions = s.Value
		case serve.MetricRejectedBusy:
			st.rejected = s.Value
		case serve.MetricPeakQueue:
			st.peakQueue = s.Value
		case serve.MetricRunWallMs:
			if s.Hist != nil {
				st.runWallP50 = append(st.runWallP50, s.Hist.P50)
			}
		}
	}
	return st, nil
}

// serveStats accumulates /metrics snapshots over one or more serving
// engines.
type serveStats struct {
	hits, misses, coalesced, runs, evictions, rejected, peakQueue float64
	runWallP50                                                    samples
	// distinct counts the distinct specs each engine executed, summed
	// over engines.
	distinct float64
}

func (a *serveStats) add(s serveStats) {
	a.hits += s.hits
	a.misses += s.misses
	a.coalesced += s.coalesced
	a.runs += s.runs
	a.evictions += s.evictions
	a.rejected += s.rejected
	a.peakQueue = max(a.peakQueue, s.peakQueue)
	a.runWallP50 = append(a.runWallP50, s.runWallP50...)
	a.distinct += s.distinct
}

// setServeLayer records the serve layer's per-layer metrics. coldP50 is
// the median cold /run latency and runP50 the median local run time of
// the same specs; a cold /run executes alone, so the difference is the
// time the request spends outside the run.
func (b *bench) setServeLayer(st serveStats, coldP50, runP50 float64) {
	requests := st.hits + st.misses + st.coalesced
	b.set("serve.hit_ratio", st.hits/requests, fmt.Sprintf("%.0f of %.0f requests", st.hits, requests))
	b.set("serve.runs_executed", st.runs, "")
	b.set("serve.coalesced", st.coalesced, "")
	b.set("serve.evictions", st.evictions, "")
	b.set("serve.rejected_busy", st.rejected, "")
	b.set("serve.useful_exec_ratio", st.distinct/st.runs, fmt.Sprintf("%.0f distinct specs over %.0f runs", st.distinct, st.runs))
	wall := st.runWallP50.p50()
	b.set("serve.run_wall_ms_p50", wall, fmt.Sprintf("median over %d engines' run_wall_ms p50, sweep points included", len(st.runWallP50)))
	b.set("serve.queue_wait_ms", coldP50-runP50, "cold /run p50 minus the local run p50 of the same specs")
	b.set("serve.peak_queue_depth", st.peakQueue, "")
}
