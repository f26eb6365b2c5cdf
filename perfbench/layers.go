package main

// Per-layer metrics of the traced run. Each is either computed from
// the spans recorded at the benchmark's own boundaries, read from a
// layer's public counters, or timed in a replay of the layer's public
// function on the run's recorded inputs (for layers the program calls
// internally, such as venue.Registry.Acquire inside the handler).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/localize"
	"indoorloc/internal/venue"
)

type layers struct{ b *bench }

func (l *layers) set(name string, v float64) {
	for _, m := range perLayerMetrics {
		if m.name == name {
			l.b.rec.set(name, v, m.unit)
			return
		}
	}
	panic("unknown per-layer metric " + name)
}

// layers starts the traced run's per-layer report: every per-layer
// metric reads 0 until a workload that exercises the layer sets it,
// and the metrics every workload has are filled in from the spans.
func (b *bench) layers(paced pacedResult, traced []bool, gc0, gc1 gcSnapshot, pt phaseTimes) *layers {
	l := &layers{b: b}
	for _, m := range perLayerMetrics {
		if _, ok := b.rec.Metrics[m.name]; !ok {
			b.rec.set(m.name, 0, m.unit)
		}
	}
	spans := b.tr.take()
	self := nest(spans)
	handle := map[uint64]time.Duration{}
	var rebuild sample
	locators := 0
	for _, s := range spans {
		switch s.name {
		case spanHandle:
			handle[s.req] = s.dur()
		case spanLocate:
			locators++
		case spanRebuild:
			rebuild = append(rebuild, float64(s.dur())/1e6)
		}
	}
	var rtt, hd, transport, selfT, coverage, reportHandle sample
	for id, c := range b.clientReqs {
		h, ok := handle[id]
		if !ok {
			continue
		}
		switch c.class {
		case "locate":
			rtt = append(rtt, us(c.rtt))
			hd = append(hd, us(h))
			transport = append(transport, us(c.rtt-h))
			selfT = append(selfT, us(self[id]))
			coverage = append(coverage, float64(h)/float64(c.rtt))
		case "report":
			reportHandle = append(reportHandle, us(h))
		}
	}
	b.rec.Samples["trace_locate_requests"] = len(rtt)
	l.set("client.rtt_us_p50", rtt.rank(0.5))
	l.set("client.transport_us_p50", transport.rank(0.5))
	l.set("client.late_ms_max", durations(paced.late, time.Millisecond).max())
	l.set("server.handle_us_p50", hd.rank(0.5))
	l.set("server.self_us_p50", selfT.rank(0.5))
	l.set("trace.coverage", coverage.rank(0.5))
	b.rec.Samples["trace_locator_spans"] = locators
	l.set("ingest.report_handle_us_p50", reportHandle.rank(0.5))
	l.set("ingest.rebuild_ms_p50", rebuild.rank(0.5))
	on := durations(paced.latency(func(i int) bool { return traced[i] }), time.Millisecond).rank(0.5)
	off := durations(paced.latency(func(i int) bool { return !traced[i] }), time.Millisecond).rank(0.5)
	if off > 0 {
		l.set("trace.overhead_pct", (on-off)/off*100)
	}
	cycles, share, pause := gcDelta(gc0, gc1)
	l.set("gc.cycles", float64(cycles))
	l.set("gc.cpu_share", share)
	l.set("gc.pause_us_p99", pause)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	l.set("trainingdb.generate_ms", ms(pt.generate))
	l.set("trainingdb.compile_ms", ms(pt.compile))
	l.set("trainingdb.quantize_ms", ms(pt.quantize))
	l.set("trainingdb.write_ms", ms(pt.write))
	l.set("trainingdb.open_ms", ms(pt.open))
	return l
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// venue reads the registry's counters over the measured phases and
// replays Registry.Acquire/Release over the run's venue-id sequence.
func (l *layers) venue(reg *venue.Registry, s0, s1 venue.Stats, residentMax int64, reqs []request) {
	requests := 0
	for _, c := range l.b.clientReqs {
		if c.class == "locate" || c.class == "saturated" {
			requests++
		}
	}
	if requests > 0 {
		l.set("venue.hit_ratio", 1-float64(s1.Loads-s0.Loads)/float64(requests))
	}
	l.set("venue.cold_load_us_p50", us(s1.ColdLoadP50))
	l.set("venue.cold_load_us_p99", us(s1.ColdLoadP99))
	l.set("venue.evictions", float64(s1.Evictions-s0.Evictions))
	l.set("venue.resident_mb_max", float64(residentMax)/(1<<20))
	var acq sample
	for _, r := range reqs {
		d, err := timeAcquire(reg, venueOf(r.path))
		if err != nil {
			l.b.violation("replay acquire: %v", err)
			continue
		}
		acq = append(acq, float64(d))
	}
	l.set("venue.acquire_ns_p50", acq.rank(0.5))
}

// timeAcquire times one Registry.Acquire and releases the pin.
func timeAcquire(reg *venue.Registry, id string) (time.Duration, error) {
	t0 := time.Now()
	v, err := reg.Acquire(id)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	v.Release()
	return d, nil
}

// replay is a run's recorded locate inputs; with runs f on the
// service that answered a request, pinned for the call.
type replay struct {
	reqs []request
	obs  []localize.Observation
	with func(r request, f func(*core.Service) error) error
}

func newReplay(reqs []request, with func(request, func(*core.Service) error) error) (*replay, error) {
	rs := &replay{reqs: reqs, with: with}
	for _, r := range reqs {
		var body struct {
			Observation localize.Observation `json:"observation"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			return nil, err
		}
		rs.obs = append(rs.obs, body.Observation)
	}
	return rs, nil
}

// fixed serves every replayed request from one service.
func fixed(svc *core.Service) func(request, func(*core.Service) error) error {
	return func(_ request, f func(*core.Service) error) error { return f(svc) }
}

// each calls f on the first n replayed inputs with the pinned service.
func (rs *replay) each(n int, f func(svc *core.Service, obs localize.Observation) error) error {
	for i := 0; i < n && i < len(rs.reqs); i++ {
		obs := rs.obs[i]
		if err := rs.with(rs.reqs[i], func(svc *core.Service) error { return f(svc, obs) }); err != nil {
			return err
		}
	}
	return nil
}

// cells returns the mean number of radio-map cells one query scores:
// entries × observed APs the map knows.
func (rs *replay) cells(n int) (float64, error) {
	var total, count float64
	err := rs.each(n, func(svc *core.Service, obs localize.Observation) error {
		src, ok := svc.Locator.(localize.CompiledSource)
		if !ok {
			return fmt.Errorf("locator %s exposes no compiled view", svc.Locator.Name())
		}
		c := src.CompiledView()
		known := 0
		for b := range obs {
			if _, ok := c.APIndex(b); ok {
				known++
			}
		}
		total += float64(c.NumEntries() * known)
		count++
		return nil
	})
	if count == 0 {
		return 0, err
	}
	return total / count, err
}

// replayLocate times Locator.Locate on the first n inputs, one call at
// a time. Every workload takes localize.locate_us from this replay, as
// the locators of venues and of the follower are built inside the
// program where the benchmark cannot wrap them.
func (l *layers) replayLocate(rs *replay, n int, tail bool) error {
	var t sample
	err := rs.each(n, func(svc *core.Service, obs localize.Observation) error {
		t0 := time.Now()
		_, err := svc.Locator.Locate(obs)
		t = append(t, us(time.Since(t0)))
		return err
	})
	if err != nil {
		return err
	}
	l.b.rec.Samples["replay_locate"] = len(t)
	l.set("localize.locate_us_p50", t.rank(0.5))
	if tail {
		v, err := t.quantile(0.99)
		if err != nil {
			return err
		}
		l.set("localize.locate_us_p99", v)
	}
	return nil
}

// replayResolve times the name and room resolution core.Service adds
// over its locator — Service.Locate over a locator that returns the
// already computed estimate — and locmap's Nearest on its own; it
// also sets the cell count and per-cell cost of the scoring kernel.
func (l *layers) replayResolve(rs *replay, n int) error {
	var resolve, nearest sample
	err := rs.each(n, func(svc *core.Service, obs localize.Observation) error {
		est, err := svc.Locator.Locate(obs)
		if err != nil {
			return err
		}
		resolved := *svc
		resolved.Locator = fixedLocator{est: est, name: svc.Locator.Name()}
		t0 := time.Now()
		if _, err := resolved.Locate(obs); err != nil {
			return err
		}
		resolve = append(resolve, us(time.Since(t0)))
		if svc.Names != nil {
			t1 := time.Now()
			svc.Names.Nearest(est.Pos)
			nearest = append(nearest, us(time.Since(t1)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.b.rec.Samples["replay_resolve"] = len(resolve)
	l.set("core.resolve_us_p50", resolve.rank(0.5))
	l.set("locmap.nearest_us_p50", nearest.rank(0.5))
	cells, err := rs.cells(n)
	if err != nil {
		return err
	}
	l.set("localize.cells_per_query", cells)
	if cells > 0 {
		l.set("localize.ns_per_cell", l.b.rec.Metrics["localize.locate_us_p50"].Value*1e3/cells)
	}
	return nil
}

// fixedLocator answers every observation with one estimate.
type fixedLocator struct {
	est  localize.Estimate
	name string
}

func (f fixedLocator) Locate(localize.Observation) (localize.Estimate, error) { return f.est, nil }
func (f fixedLocator) Name() string                                           { return f.name }

// memWriter is an in-memory http.ResponseWriter reused across calls.
type memWriter struct {
	h    http.Header
	buf  []byte
	code int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(p []byte) (int, error) { w.buf = append(w.buf, p...); return len(p), nil }

// allocs replays the first n recorded requests straight into the
// server's ServeHTTP — no socket, no client — and reports heap
// allocations per request.
func (l *layers) allocs(h http.Handler, reqs []request, n int) {
	n = min(n, len(reqs))
	built := make([]*http.Request, n)
	for i := range built {
		r, err := http.NewRequest(http.MethodPost, "http://bench"+reqs[i].path, &bodyReader{b: reqs[i].body})
		if err != nil {
			l.b.violation("replay request: %v", err)
			return
		}
		r.Header.Set("Content-Type", "application/json")
		built[i] = r
	}
	w := &memWriter{h: http.Header{}, buf: make([]byte, 0, 4096)}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range built {
		clear(w.h)
		w.buf, w.code = w.buf[:0], 0
		h.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&m1)
	if n > 0 {
		l.set("server.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
}

// bodyReader is an allocation-free request body.
type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error { return nil }
