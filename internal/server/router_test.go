package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"indoorloc/internal/geom"
)

// newTestRouter builds a router over a synthetic table so routing
// behaviour is testable without a trained service behind it.
func newTestRouter(alog *accessLogger, timeout time.Duration) *router {
	ok := func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}
	echo := func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			writeError(w, decodeStatus(err), err)
			return
		}
		w.Write(b)
	}
	boom := func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}
	slow := func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		w.Write([]byte("too late"))
	}
	defs := []routeDef{
		{name: "ping", path: "/ping", get: ok, del: ok},
		{name: "echo", path: "/echo", post: echo, maxBody: 16},
		{name: "boom", path: "/boom", get: boom},
		{name: "slow", path: "/slow", get: slow, timeout: timeout},
		{name: "track", path: "/track/", prefix: true, post: ok},
	}
	return newRouter(defs, alog)
}

func TestRouterTable(t *testing.T) {
	rt := newTestRouter(nil, 30*time.Millisecond)
	tests := []struct {
		name      string
		method    string
		path      string
		body      string
		chunked   bool
		want      int
		wantAllow string
	}{
		{name: "exact get", method: "GET", path: "/ping", want: 200},
		{name: "exact delete", method: "DELETE", path: "/ping", want: 200},
		{name: "method not allowed", method: "POST", path: "/ping", want: 405, wantAllow: "GET, DELETE"},
		{name: "post-only route rejects get", method: "GET", path: "/echo", want: 405, wantAllow: "POST"},
		{name: "unknown path", method: "GET", path: "/nope", want: 404},
		{name: "doubled slash", method: "GET", path: "//ping", want: 404},
		{name: "inner doubled slash", method: "POST", path: "/track//x", want: 404},
		{name: "dot segment", method: "GET", path: "/ping/../ping", want: 404},
		{name: "trailing dot", method: "GET", path: "/ping/.", want: 404},
		{name: "trailing dotdot", method: "GET", path: "/ping/..", want: 404},
		{name: "track client ok", method: "POST", path: "/track/alice", want: 200},
		{name: "track empty client", method: "POST", path: "/track/", want: 404},
		{name: "track nested subpath", method: "POST", path: "/track/a/b", want: 404},
		{name: "track wrong method", method: "GET", path: "/track/alice", want: 405, wantAllow: "POST"},
		{name: "body within cap", method: "POST", path: "/echo", body: "0123456789", want: 200},
		{name: "body at cap", method: "POST", path: "/echo", body: strings.Repeat("x", 16), want: 200},
		{name: "body over cap declared", method: "POST", path: "/echo", body: strings.Repeat("x", 17), want: 413},
		{name: "body over cap chunked", method: "POST", path: "/echo", body: strings.Repeat("x", 64), chunked: true, want: 413},
		{name: "path too long", method: "GET", path: "/" + strings.Repeat("p", maxPathLen), want: 414},
		{name: "slow handler times out", method: "GET", path: "/slow", want: 503},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var body io.Reader
			if tt.body != "" {
				body = strings.NewReader(tt.body)
			}
			req := httptest.NewRequest(tt.method, tt.path, body)
			if tt.chunked {
				req.ContentLength = -1
			}
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, req)
			if rec.Code != tt.want {
				t.Fatalf("status %d, want %d", rec.Code, tt.want)
			}
			if tt.wantAllow != "" && rec.Header().Get("Allow") != tt.wantAllow {
				t.Errorf("Allow %q, want %q", rec.Header().Get("Allow"), tt.wantAllow)
			}
			if tt.want >= 400 {
				// Every routing-layer error is JSON with a coded error
				// envelope and carries the request id.
				var e errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
					t.Errorf("error body %q not a coded JSON envelope: %v", rec.Body.String(), err)
				}
				if rec.Header().Get("X-Request-Id") == "" {
					t.Errorf("error response missing X-Request-Id")
				}
			}
			if tt.want == 413 && rec.Header().Get("Connection") != "close" {
				t.Errorf("413 must close the connection")
			}
		})
	}
	if n := rt.timeouts.Load(); n != 1 {
		t.Errorf("timeouts counter %d, want 1", n)
	}
}

func TestRouterPanicRecovery(t *testing.T) {
	rt := newTestRouter(nil, 0)
	req := httptest.NewRequest("GET", "/boom", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req) // must not propagate the panic
	if rec.Code != 500 {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if rec.Header().Get("Connection") != "close" {
		t.Errorf("recovered response must close the connection")
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("panic body not JSON: %v", err)
	}
	if strings.Contains(e.Error.Message, "exploded") {
		t.Errorf("panic value leaked to the client: %q", e.Error.Message)
	}
	if n := rt.panics.Load(); n != 1 {
		t.Errorf("panics counter %d, want 1", n)
	}
}

// TestRouterGuardedPanic exercises the panic path under the timeout
// guard: the handler panics on its own goroutine and the panic must be
// re-raised and recovered on the request goroutine.
func TestRouterGuardedPanic(t *testing.T) {
	boom := func(w http.ResponseWriter, r *http.Request) { panic("guarded") }
	rt := newRouter([]routeDef{
		{name: "boom", path: "/boom", get: boom, timeout: time.Second},
	}, nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != 500 {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if n := rt.panics.Load(); n != 1 {
		t.Errorf("panics counter %d, want 1", n)
	}
}

// TestRouterMidResponsePanicAborts covers the panic-after-write case:
// once the handler has started the response, finish() cannot answer a
// clean 500 — it must re-panic http.ErrAbortHandler so net/http tears
// the connection down instead of finishing the truncated body as an
// apparently complete success.
func TestRouterMidResponsePanicAborts(t *testing.T) {
	h := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		panic("mid-response")
	}
	rt := newRouter([]routeDef{{name: "mid", path: "/mid", get: h}}, nil)
	rec := httptest.NewRecorder()
	var got any
	func() {
		defer func() { got = recover() }()
		rt.ServeHTTP(rec, httptest.NewRequest("GET", "/mid", nil))
	}()
	if got != http.ErrAbortHandler {
		t.Fatalf("ServeHTTP panicked with %v, want http.ErrAbortHandler", got)
	}
	if n := rt.panics.Load(); n != 1 {
		t.Errorf("panics counter %d, want 1", n)
	}
}

// TestRouterTimeoutDetachesBodyLimiter pins the timeout/limiter
// interaction: when the guard abandons a handler that still holds the
// request body, the pooled chunked-body limiter must NOT go back to
// the pool — the handler's later reads would otherwise race a new
// request that re-acquired it (nil-pointer panics, cross-request body
// reads).
func TestRouterTimeoutDetachesBodyLimiter(t *testing.T) {
	release := make(chan struct{})
	readDone := make(chan error, 1)
	h := func(w http.ResponseWriter, r *http.Request) {
		<-release // outlive the deadline while still owning r.Body
		_, err := io.Copy(io.Discard, r.Body)
		readDone <- err
	}
	rt := newRouter([]routeDef{
		{name: "slow", path: "/slow", post: h, maxBody: 1 << 10, timeout: 5 * time.Millisecond},
	}, nil)
	req := httptest.NewRequest("POST", "/slow", strings.NewReader(strings.Repeat("x", 100)))
	req.ContentLength = -1 // chunked: forces the pooled limiter
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	// The request goroutine has returned and pooled its statusWriter;
	// the abandoned handler now reads the body it still owns. With the
	// limiter wrongly pooled this read hits rc=nil and panics.
	close(release)
	select {
	case err := <-readDone:
		if err != nil {
			t.Errorf("abandoned handler's body read failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned handler never finished its body read (panicked on a recycled limiter?)")
	}
}

// TestRouterTimeoutAbandonedPanicCounted verifies a panic that lands
// after the deadline already fired still shows up in the panics
// counter — the client got its 503, but the operator must see the
// crash in /metrics.
func TestRouterTimeoutAbandonedPanicCounted(t *testing.T) {
	release := make(chan struct{})
	h := func(w http.ResponseWriter, r *http.Request) {
		<-release
		panic("after deadline")
	}
	rt := newRouter([]routeDef{
		{name: "slow", path: "/slow", get: h, timeout: 5 * time.Millisecond},
	}, nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/slow", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if n := rt.panics.Load(); n != 0 {
		t.Fatalf("panics counter %d before the handler panicked", n)
	}
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for rt.panics.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("panics counter %d, want 1 (timed-out handler's panic invisible)", rt.panics.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterGuardedSuccess verifies the timeout guard replays a fast
// handler's buffered response — headers, status and body intact.
func TestRouterGuardedSuccess(t *testing.T) {
	h := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "yes")
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte("made it"))
	}
	rt := newRouter([]routeDef{
		{name: "fast", path: "/fast", get: h, timeout: time.Second},
	}, nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/fast", nil))
	if rec.Code != http.StatusCreated {
		t.Fatalf("status %d, want 201", rec.Code)
	}
	if rec.Header().Get("X-Custom") != "yes" {
		t.Errorf("header lost in replay")
	}
	if rec.Body.String() != "made it" {
		t.Errorf("body %q lost in replay", rec.Body.String())
	}
}

// TestRouterMetrics verifies every dispatch outcome lands in the
// registry: routed requests under their route, unroutable ones under
// the trailing "other" slot.
func TestRouterMetrics(t *testing.T) {
	rt := newTestRouter(nil, 0)
	for _, req := range []struct{ method, path string }{
		{"GET", "/ping"},
		{"GET", "/ping"},
		{"POST", "/ping"},    // 405: still the ping route
		{"GET", "/nowhere"},  // 404: other
		{"GET", "//ping"},    // unclean: other
		{"POST", "/track/x"}, // prefix route
	} {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, nil))
	}
	names := rt.metrics.Names()
	idx := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		t.Fatalf("route %q not in registry %v", name, names)
		return -1
	}
	if got := rt.metrics.RouteCount(idx("ping")); got != 3 {
		t.Errorf("ping count %d, want 3", got)
	}
	if got := rt.metrics.RouteCount(idx("other")); got != 2 {
		t.Errorf("other count %d, want 2", got)
	}
	if got := rt.metrics.RouteCount(idx("track")); got != 1 {
		t.Errorf("track count %d, want 1", got)
	}
}

// nullWriter is a reusable ResponseWriter that costs nothing per
// request, so alloc measurements see only the router's own work.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(c int)           { w.status = c }

// TestRouterZeroAllocDispatch is the tentpole's core claim measured
// directly: dispatching a request through the full chain — router
// lookup, limits, statusWriter, metrics, access-log ring — allocates
// nothing once the pools are warm. The tolerance absorbs a rare
// sync.Pool refill after a mid-measurement GC, nothing else.
func TestRouterZeroAllocDispatch(t *testing.T) {
	h := func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) }
	alog := newAccessLogger(io.Discard, 64, []string{"ping", "other"})
	defer alog.Close()
	rt := newRouter([]routeDef{{name: "ping", path: "/ping", get: h}}, alog)
	req := httptest.NewRequest("GET", "/ping", nil)
	nw := &nullWriter{h: make(http.Header)}
	for i := 0; i < 100; i++ { // warm the pools
		rt.ServeHTTP(nw, req)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rt.ServeHTTP(nw, req)
	})
	if allocs > 0.01 {
		t.Errorf("router dispatch allocates %.3f/request, want 0", allocs)
	}
}

// resetReader replays the same bytes for every request without
// allocating a fresh reader: Seek back, hand out the same NopCloser.
type resetReader struct {
	*bytes.Reader
}

func (r *resetReader) Close() error { return nil }

// TestRouterAllocParity asserts the front end adds zero allocations on
// the /locate and /locate/batch hot paths: a full ServeHTTP round trip
// through router, middleware, metrics and access log must allocate no
// more than calling the handler directly. The race runtime allocates
// nondeterministically inside the handlers (±2 on ~70 allocs), which
// swamps a zero delta — the race lane relies on
// TestRouterZeroAllocDispatch, which stays exact because the measured
// path does no handler work.
func TestRouterAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations make handler parity nondeterministic")
	}
	f := newFixture(t)
	obs := f.observationBody(t, geom.Pt(25, 20))
	batch := []byte(`{"observations":[{"aa:bb:cc:dd:ee:01":-50,"aa:bb:cc:dd:ee:02":-60},` +
		`{"aa:bb:cc:dd:ee:01":-70,"aa:bb:cc:dd:ee:03":-55}]}`)

	measure := func(path string, payload []byte, h http.HandlerFunc) float64 {
		body := &resetReader{bytes.NewReader(payload)}
		run := func(serve func(w http.ResponseWriter, r *http.Request)) float64 {
			req := httptest.NewRequest("POST", path, nil)
			req.Body = body
			req.ContentLength = int64(len(payload))
			nw := &nullWriter{h: make(http.Header)}
			for i := 0; i < 20; i++ { // warm pools and scoring caches
				body.Seek(0, io.SeekStart)
				serve(nw, req)
			}
			return testing.AllocsPerRun(100, func() {
				body.Seek(0, io.SeekStart)
				serve(nw, req)
			})
		}
		direct := run(h)
		full := run(f.srv.ServeHTTP)
		t.Logf("%s: direct=%.1f full=%.1f", path, direct, full)
		return full - direct
	}

	if delta := measure("/locate", obs, f.srv.handleVenueLocate); delta > 0.5 {
		t.Errorf("front end adds %.2f allocs/request on /locate, want 0", delta)
	}
	if delta := measure("/locate/batch", batch, f.srv.handleVenueLocateBatch); delta > 0.5 {
		t.Errorf("front end adds %.2f allocs/request on /locate/batch, want 0", delta)
	}
}
