package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"indoorloc/internal/ingest"
	"indoorloc/internal/sim"
	"indoorloc/internal/venue"
)

var updateRouteMatrix = flag.Bool("update-route-matrix", false,
	"rewrite testdata/route_matrix.golden from the current server")

// matrixServer is one public constructor's server plus an observation
// its radio map can answer.
type matrixServer struct {
	name string
	srv  *Server
	obs  map[string]float64
}

// matrixServers builds one server per public constructor over
// deterministic radio maps: the 25-point grid for the single-venue
// constructors and a one-venue city (as the default venue) for
// NewMultiVenue.
func matrixServers(t *testing.T) []matrixServer {
	t.Helper()
	gridObs := map[string]float64{"ap0": -46, "ap1": -52, "ap2": -60}

	svc, err := gridRebuilder(gridDB(25))
	if err != nil {
		t.Fatal(err)
	}
	static, err := New(svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { static.Close() })

	// A live manager that never recompiles during the test, so the
	// report accepted at the end cannot change any earlier answer.
	mgr, err := ingest.NewManager(gridDB(25), gridRebuilder, ingest.Config{
		WALPath:      filepath.Join(t.TempDir(), "reports.wal"),
		FlushReports: 1 << 20, FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	live, err := NewLive(mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })

	rf := newReplFixture(t)
	rf.waitConverged(t)

	def := sim.VenueID(0, 0)
	vf := newVenueFixture(t, 1, 1, venue.Config{Default: def})
	var cityObs struct {
		Observation map[string]float64 `json:"observation"`
	}
	if err := json.Unmarshal(venueObservation(t, 0, 0), &cityObs); err != nil {
		t.Fatal(err)
	}
	return []matrixServer{
		{"New", static, gridObs},
		{"NewLive", live, gridObs},
		{"NewFollower", rf.follower, gridObs},
		{"NewMultiVenue", vf.srv, cityObs.Observation},
	}
}

// matrixCase is one request of the matrix; body builds the request
// body from the server's answerable observation.
type matrixCase struct {
	method, path string
	body         func(obs map[string]float64) string
}

func raw(s string) func(map[string]float64) string {
	return func(map[string]float64) string { return s }
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// matrixCases walks every unversioned route and method, in an order
// whose stateful steps (track create/forget, the accepted report) are
// deterministic: each server sees exactly this sequence.
var matrixCases = []matrixCase{
	{"GET", "/healthz", nil},
	{"POST", "/healthz", raw(`{}`)},
	{"GET", "/algorithms", nil},
	{"GET", "/locations", nil},
	{"DELETE", "/locations", nil},
	{"POST", "/locate", func(o map[string]float64) string { return mustJSON(map[string]any{"observation": o}) }},
	{"POST", "/locate", raw(`{"records":[{"time_millis":1,"bssid":"ap0","rssi":-46},{"time_millis":2,"bssid":"ap1","rssi":-52}]}`)},
	{"POST", "/locate", raw(`{"observation":{"zz:zz:zz:zz:zz:zz":-50}}`)},
	{"POST", "/locate", raw(`{}`)},
	{"POST", "/locate", raw(`{"observation":`)},
	{"POST", "/locate", raw(`{"observation":{"ap0":-50},"records":[{"bssid":"ap0","rssi":-50}]}`)},
	{"GET", "/locate", nil},
	{"POST", "/locate/batch", func(o map[string]float64) string {
		return mustJSON(map[string]any{"observations": []any{o, map[string]float64{"zz:zz:zz:zz:zz:zz": -50}, o}})
	}},
	{"POST", "/locate/batch", raw(`{"observations":[]}`)},
	{"POST", "/locate/batch", raw(`{"observations":[{"ap0":"loud"}]}`)},
	{"POST", "/locate/batch", raw(`{"nope":[]}`)},
	{"GET", "/locate/batch", nil},
	{"DELETE", "/track/cart-1", nil},
	{"POST", "/track/cart-1", func(o map[string]float64) string { return mustJSON(map[string]any{"observation": o}) }},
	{"POST", "/track/cart-1", func(o map[string]float64) string { return mustJSON(map[string]any{"observation": o}) }},
	{"POST", "/track/cart-1", raw(`{}`)},
	{"POST", "/track/cart-2", raw(`{"observation":{"zz:zz:zz:zz:zz:zz":-50}}`)},
	{"GET", "/track/cart-1", nil},
	{"DELETE", "/track/cart-1", nil},
	{"DELETE", "/track/cart-1", nil},
	{"POST", "/track/", raw(`{}`)},
	{"POST", "/track/a/b", raw(`{}`)},
	{"GET", "/v1/venues", nil},
	{"GET", "/nope", nil},
	{"GET", "/train/report", nil},
	{"POST", "/train/report", raw(`{`)},
	{"POST", "/train/report", raw(`{}`)},
	{"POST", "/train/report", raw(`{"name":"p_0_0","observation":{"ap0":-44.5}}`)},
	{"GET", "/metrics", nil},
}

// summarize renders one response for the golden file. Most bodies are
// pinned byte for byte; the three whose content includes clocks or
// latency quantiles (/healthz, /metrics, /v1/venues listings) are
// pinned by their shape: sorted JSON keys plus the stable fields, or
// the metric families plus the per-route request counters.
func summarize(path string, rec *httptest.ResponseRecorder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "status: %d\n", rec.Code)
	fmt.Fprintf(&b, "content-type: %s\n", rec.Header().Get("Content-Type"))
	if a := rec.Header().Get("Allow"); a != "" {
		fmt.Fprintf(&b, "allow: %s\n", a)
	}
	body := rec.Body.String()
	switch {
	case path == "/metrics" && rec.Code == http.StatusOK:
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "indoorloc_http_requests_total{") {
				fmt.Fprintf(&b, "metric: %s\n", line)
			}
		}
	case (path == "/healthz" || path == "/v1/venues") && rec.Code == http.StatusOK:
		var m map[string]any
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			fmt.Fprintf(&b, "body: %s", body)
			break
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "keys: %s\n", strings.Join(keys, ","))
		for _, k := range []string{"status", "mode", "algorithm", "locations", "aps"} {
			if v, ok := m[k]; ok {
				fmt.Fprintf(&b, "%s: %v\n", k, v)
			}
		}
	default:
		fmt.Fprintf(&b, "body: %s", body)
		if !strings.HasSuffix(body, "\n") {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestRouteMatrix pins every unversioned route × method × public
// constructor: status, content type, Allow header, error code and
// body. The golden file is the oracle for the serving path — any
// change to what a client of any server mode sees shows up as a diff.
// Regenerate with -update-route-matrix only for an intended API change.
func TestRouteMatrix(t *testing.T) {
	var out strings.Builder
	for _, ms := range matrixServers(t) {
		for _, c := range matrixCases {
			var body []byte
			if c.body != nil {
				body = []byte(c.body(ms.obs))
			}
			req := httptest.NewRequest(c.method, c.path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			ms.srv.ServeHTTP(rec, req)
			fmt.Fprintf(&out, "== %s %s %s\n%s", ms.name, c.method, c.path, summarize(c.path, rec))
		}
	}
	golden := filepath.Join("testdata", "route_matrix.golden")
	if *updateRouteMatrix {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-route-matrix to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("route matrix diverges from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}
