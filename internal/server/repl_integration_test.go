package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"indoorloc/internal/ingest"
	"indoorloc/internal/repl"
)

// replFixture is a complete replication pair: a live-training trainer
// exposing the replication endpoints and a follower serving from its
// replicated radio map, both behind real HTTP servers.
type replFixture struct {
	mgr        *ingest.Manager
	src        *repl.Source
	fol        *repl.Follower
	trainerTS  *httptest.Server
	followerTS *httptest.Server
	trainer    *Server
	follower   *Server
}

func newReplFixture(t *testing.T, opts ...Option) *replFixture {
	t.Helper()
	src := repl.NewSource(repl.SourceConfig{Heartbeat: 50 * time.Millisecond})
	mgr, err := ingest.NewManager(gridDB(25), gridRebuilder, ingest.Config{
		WALPath:      t.TempDir() + "/reports.wal",
		FlushReports: 2, FlushInterval: 15 * time.Millisecond, SnapRadius: 5,
		OnPublish: src.OnPublish,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	src.Bind(mgr)
	trainer, err := NewLive(mgr, nil, append([]Option{WithReplicationSource(src)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	trainerTS := httptest.NewServer(trainer)
	t.Cleanup(trainerTS.Close)

	fol, err := repl.NewFollower(repl.FollowerConfig{
		TrainerURL:   trainerTS.URL,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fol.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	follower, err := NewFollower(fol, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	followerTS := httptest.NewServer(follower)
	t.Cleanup(followerTS.Close)
	return &replFixture{
		mgr: mgr, src: src, fol: fol,
		trainerTS: trainerTS, followerTS: followerTS,
		trainer: trainer, follower: follower,
	}
}

// waitConverged blocks until the follower serves the trainer's
// current generation with the whole WAL applied.
func (f *replFixture) waitConverged(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := f.fol.Stats()
		if st.State == repl.StateStreaming &&
			st.Generation == f.mgr.Registry().Current().Generation &&
			st.AppliedSeq == f.mgr.WAL().Seq() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never converged: %+v (trainer gen %d head %d)",
		f.fol.Stats(), f.mgr.Registry().Current().Generation, f.mgr.WAL().Seq())
}

// postRaw posts and returns status plus the raw response bytes.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestFollowerLocateByteIdentical is the acceptance property at the
// API surface: at the same generation, trainer and follower answer
// /locate and /locate/batch with byte-identical bodies.
func TestFollowerLocateByteIdentical(t *testing.T) {
	f := newReplFixture(t)
	// Churn the map first so the follower has folded and recompiled,
	// not just bootstrapped.
	for i := 0; i < 30; i++ {
		_, _ = postRaw(t, f.trainerTS.URL+"/train/report", []byte(fmt.Sprintf(
			`{"name":"p_%d_%d","observation":{"ap0":%g,"ap1":-61.5}}`,
			(i%5)*10, (i/5%5)*10, -44.0-float64(i%13))))
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.mgr.Stats().Folded < 30 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	f.waitConverged(t)

	obs := []string{
		`{"observation":{"ap0":-46,"ap1":-52,"ap2":-60}}`,
		`{"observation":{"ap0":-58.5,"ap2":-49}}`,
		`{"observation":{"ap1":-71,"ap2":-55,"ap0":-50.25}}`,
	}
	for _, o := range obs {
		cs, trainerBody := postRaw(t, f.trainerTS.URL+"/locate", []byte(o))
		cf, followerBody := postRaw(t, f.followerTS.URL+"/locate", []byte(o))
		if cs != http.StatusOK || cf != http.StatusOK {
			t.Fatalf("locate status trainer=%d follower=%d", cs, cf)
		}
		if !bytes.Equal(trainerBody, followerBody) {
			t.Errorf("locate diverged for %s:\n trainer: %s\nfollower: %s", o, trainerBody, followerBody)
		}
	}
	batch := []byte(`{"observations":[{"ap0":-46,"ap1":-52},{"ap2":-49,"ap0":-58.5},{"ap1":-71,"ap2":-55}]}`)
	cs, trainerBody := postRaw(t, f.trainerTS.URL+"/locate/batch", batch)
	cf, followerBody := postRaw(t, f.followerTS.URL+"/locate/batch", batch)
	if cs != http.StatusOK || cf != http.StatusOK || !bytes.Equal(trainerBody, followerBody) {
		t.Errorf("batch diverged (%d/%d):\n trainer: %s\nfollower: %s", cs, cf, trainerBody, followerBody)
	}
}

// TestFollowerIsReadOnly: training writes on a follower answer 409
// venue_frozen pointing at the trainer — never 404 (the fleet is one
// logical service; the endpoint exists everywhere).
func TestFollowerIsReadOnly(t *testing.T) {
	f := newReplFixture(t)
	resp, body := postJSON(t, f.followerTS.URL+"/train/report",
		[]byte(`{"name":"p_0_0","observation":{"ap0":-44.5}}`))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("follower /train/report: %d, want 409", resp.StatusCode)
	}
	errBody, ok := body["error"].(map[string]any)
	if !ok || errBody["code"] != "venue_frozen" {
		t.Errorf("error body %v, want code venue_frozen", body)
	}
	// The same write on the trainer is accepted.
	resp, _ = postJSON(t, f.trainerTS.URL+"/train/report",
		[]byte(`{"name":"p_0_0","observation":{"ap0":-44.5}}`))
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("trainer /train/report: %d, want 202", resp.StatusCode)
	}
}

func TestFollowerHealthzAndMetrics(t *testing.T) {
	f := newReplFixture(t)
	f.waitConverged(t)

	resp, body := getJSON(t, f.followerTS.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower healthz: %d", resp.StatusCode)
	}
	if body["mode"] != "follower" {
		t.Errorf("mode %v, want follower", body["mode"])
	}
	rep, ok := body["replication"].(map[string]any)
	if !ok {
		t.Fatalf("no replication section: %v", body)
	}
	if rep["state"] != repl.StateStreaming {
		t.Errorf("replication state %v", rep["state"])
	}
	if _, ok := rep["applied_seq"]; !ok {
		t.Error("replication section lacks applied_seq")
	}

	resp, body = getJSON(t, f.trainerTS.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trainer healthz: %d", resp.StatusCode)
	}
	srcStats, ok := body["replication_source"].(map[string]any)
	if !ok {
		t.Fatalf("no replication_source section: %v", body)
	}
	if srcStats["ready"] != true {
		t.Errorf("source not ready: %v", srcStats)
	}

	for url, wants := range map[string][]string{
		f.followerTS.URL + "/metrics": {
			"indoorloc_repl_lag_seqs ", "indoorloc_repl_lag_bytes ", "indoorloc_repl_lag_seconds ",
			"indoorloc_repl_caught_up 1", "indoorloc_repl_bootstraps_total 1",
		},
		f.trainerTS.URL + "/metrics": {
			"indoorloc_repl_source_ready 1", "indoorloc_repl_source_captures_total ",
		},
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range wants {
			if !strings.Contains(string(raw), want) {
				t.Errorf("%s lacks %q", url, want)
			}
		}
	}
}

// TestFollowerLocateAllocParity is the follower-mode half of the
// zero-allocation serving claim: the follower's /locate path through
// the full front end adds nothing over calling the handler directly —
// replication must not tax the hot path.
func TestFollowerLocateAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations make handler parity nondeterministic")
	}
	f := newReplFixture(t)
	f.waitConverged(t)
	payload := []byte(`{"observation":{"ap0":-46,"ap1":-52,"ap2":-60}}`)

	body := &resetReader{bytes.NewReader(payload)}
	run := func(serve func(w http.ResponseWriter, r *http.Request)) float64 {
		req := httptest.NewRequest("POST", "/locate", nil)
		req.Body = body
		req.ContentLength = int64(len(payload))
		nw := &nullWriter{h: make(http.Header)}
		for i := 0; i < 20; i++ {
			body.Seek(0, io.SeekStart)
			serve(nw, req)
		}
		return testing.AllocsPerRun(100, func() {
			body.Seek(0, io.SeekStart)
			serve(nw, req)
		})
	}
	direct := run(f.follower.handleVenueLocate)
	full := run(f.follower.ServeHTTP)
	t.Logf("follower /locate: direct=%.1f full=%.1f", direct, full)
	if delta := full - direct; delta > 0.5 {
		t.Errorf("follower front end adds %.2f allocs/request on /locate, want 0", delta)
	}
}
