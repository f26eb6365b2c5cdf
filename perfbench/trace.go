package main

// Tracing for the --trace 1 run. Spans are recorded only around calls
// the benchmark makes into the program's public functions, or around
// interfaces it hands to the program: the mounted http.Handler, the
// localize.Locator inside a core.Service the benchmark builds, the
// ingest.Rebuilder and the ingest.Config.OnPublish hook. Spans stay in
// memory until the run ends.
//
// A span carries the id of the request that caused it: the client
// sends it in reqIDHeader, the handler span reads it, and a nested
// locator span is tied to its handler span afterwards by goroutine and
// time containment (net/http runs the handler, and the handler the
// locator, on one goroutine).

import (
	"bytes"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/ingest"
	"indoorloc/internal/localize"
	"indoorloc/internal/trainingdb"
)

const reqIDHeader = "X-Perfbench-Request"

// Span names.
const (
	spanHandle  = "server.handle"
	spanLocate  = "localize.locate"
	spanRebuild = "ingest.rebuild"
)

type span struct {
	name       string
	req        uint64 // request id; 0 for background work
	goroutine  uint64
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer collects spans while enabled. A nil *tracer records nothing,
// which is how the untraced run uses the same code.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// alternate switches tracing on and off every period until the
// returned stop is called, so that traced and untraced requests of one
// phase share its conditions and their latency difference is the
// tracing overhead.
func (t *tracer) alternate(period time.Duration) (stop func()) {
	if t == nil {
		return func() {}
	}
	p := startPoller(period, func(time.Time) { t.on.Store(!t.on.Load()) })
	t.on.Store(true)
	return func() {
		p.halt()
		t.on.Store(false)
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh list.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:"). It costs a microsecond or so, which is
// part of the measured tracing overhead.
func goroutineID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// handler wraps the mounted http.Handler with a server.handle span.
func (t *tracer) handler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
		s := span{name: spanHandle, req: id, goroutine: goroutineID(), start: time.Now()}
		h.ServeHTTP(w, r)
		s.end = time.Now()
		t.add(s)
	})
}

// tracedLocator records a localize.locate span per call.
type tracedLocator struct {
	localize.Locator
	t *tracer
}

func (l *tracedLocator) Locate(obs localize.Observation) (localize.Estimate, error) {
	if !l.t.enabled() {
		return l.Locator.Locate(obs)
	}
	s := span{name: spanLocate, goroutine: goroutineID(), start: time.Now()}
	est, err := l.Locator.Locate(obs)
	s.end = time.Now()
	l.t.add(s)
	return est, err
}

// The program type-asserts a locator for localize.Warmer (core warms
// at build) and localize.CompiledSource (ingest writes artifacts and
// feeds replication from it). A wrapper that hid either would break
// those paths silently, so each combination has its own type.
type (
	tracedWarmer struct{ *tracedLocator }
	tracedSource struct{ *tracedLocator }
	tracedBoth   struct{ *tracedLocator }
)

func (l tracedWarmer) Warm() error { return l.Locator.(localize.Warmer).Warm() }
func (l tracedSource) CompiledView() *trainingdb.Compiled {
	return l.Locator.(localize.CompiledSource).CompiledView()
}
func (l tracedBoth) Warm() error { return l.Locator.(localize.Warmer).Warm() }
func (l tracedBoth) CompiledView() *trainingdb.Compiled {
	return l.Locator.(localize.CompiledSource).CompiledView()
}

// locator wraps loc with a localize.locate span, forwarding exactly
// the optional interfaces loc implements.
func (t *tracer) locator(loc localize.Locator) localize.Locator {
	if t == nil {
		return loc
	}
	tl := &tracedLocator{Locator: loc, t: t}
	_, warm := loc.(localize.Warmer)
	_, src := loc.(localize.CompiledSource)
	switch {
	case warm && src:
		return tracedBoth{tl}
	case warm:
		return tracedWarmer{tl}
	case src:
		return tracedSource{tl}
	}
	return tl
}

// service returns svc with its locator traced.
func (t *tracer) service(svc *core.Service) *core.Service {
	if t == nil {
		return svc
	}
	cp := *svc
	cp.Locator = t.locator(svc.Locator)
	return &cp
}

// rebuilder wraps an ingest.Rebuilder with an ingest.rebuild span and
// traces the locator of every service it builds.
func (t *tracer) rebuilder(rb ingest.Rebuilder) ingest.Rebuilder {
	if t == nil {
		return rb
	}
	return func(db *trainingdb.DB) (*core.Service, error) {
		s := span{name: spanRebuild, start: time.Now()}
		svc, err := rb(db)
		s.end = time.Now()
		if t.enabled() {
			t.add(s)
		}
		if err != nil {
			return nil, err
		}
		return t.service(svc), nil
	}
}

// nest ties each nested span to the handler span that contains it on
// the same goroutine, setting its request id, and returns per-request
// handler self time (handle minus nested spans).
func nest(spans []span) (selfByReq map[uint64]time.Duration) {
	byG := map[uint64][]int{}
	for i, s := range spans {
		if s.name == spanHandle {
			byG[s.goroutine] = append(byG[s.goroutine], i)
		}
	}
	selfByReq = map[uint64]time.Duration{}
	for _, i := range byG {
		for _, h := range i {
			selfByReq[spans[h].req] += spans[h].dur()
		}
	}
	for j := range spans {
		s := &spans[j]
		if s.name == spanHandle || s.goroutine == 0 {
			continue
		}
		for _, h := range byG[s.goroutine] {
			hs := spans[h]
			if !s.start.Before(hs.start) && !s.end.After(hs.end) {
				s.req = hs.req
				selfByReq[hs.req] -= s.dur()
				break
			}
		}
	}
	return selfByReq
}
