package venue

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"indoorloc/internal/core"
	"indoorloc/internal/geom"
	"indoorloc/internal/ingest"
	"indoorloc/internal/localize"
	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
)

// cityDir writes a small synthetic city and returns its directory.
func cityDir(t *testing.T, campuses, floors int) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := sim.WriteArtifacts(dir, sim.CityConfig{Campuses: campuses, Floors: floors, Seed: 42}); err != nil {
		t.Fatalf("WriteArtifacts: %v", err)
	}
	return dir
}

// observe captures one live observation inside the venue's scenario.
func observe(t *testing.T, campus, floor int) localize.Observation {
	t.Helper()
	s := sim.CityScenario(campus, floor)
	env, err := s.Environment()
	if err != nil {
		t.Fatalf("environment: %v", err)
	}
	sc := sim.NewScanner(env, 7)
	obs := localize.Observation{}
	for _, rec := range sc.Capture(geom.Pt(15, 15), 3, 0) {
		obs[rec.BSSID] = float64(rec.RSSI)
	}
	return obs
}

func TestValidID(t *testing.T) {
	long := make([]byte, MaxIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	cases := []struct {
		id string
		ok bool
	}{
		{"campus-001-floor-2", true},
		{"a", true},
		{"A.Z_9-x", true},
		{string(long[:MaxIDLen]), true},
		{"", false},
		{string(long), false},
		{".", false},
		{"..", false},
		{"a/b", false},
		{"../etc", false},
		{"a b", false},
		{"café", false},
		{"a%2e%2e", true}, // percent chars are not in the charset...
	}
	cases[len(cases)-1].ok = false // '%' is rejected
	for _, c := range cases {
		if got := ValidID(c.id); got != c.ok {
			t.Errorf("ValidID(%q) = %v, want %v", c.id, got, c.ok)
		}
	}
}

func TestRegistryLoadAndServe(t *testing.T) {
	dir := cityDir(t, 2, 2)
	r, err := NewRegistry(Config{Dir: dir})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer r.Close()

	v, err := r.Acquire(sim.VenueID(1, 1))
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer v.Release()
	snap := v.Snapshot()
	if snap == nil || snap.Service == nil || snap.Service.Locator == nil {
		t.Fatalf("venue has no serving snapshot")
	}
	est, err := snap.Service.Locator.Locate(observe(t, 1, 1))
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	s := sim.CityScenario(1, 1)
	if !s.Outline.Contains(est.Pos) {
		t.Errorf("estimate %v outside venue outline %v", est.Pos, s.Outline)
	}
	st := r.Stats()
	if st.Loaded != 1 || st.Loads != 1 || st.LoadErrors != 0 {
		t.Errorf("stats after one load: %+v", st)
	}
	if st.ColdLoadP99 <= 0 {
		t.Errorf("cold-load histogram not observed: %+v", st)
	}
}

func TestRegistryUnknownAndInvalid(t *testing.T) {
	r, err := NewRegistry(Config{Dir: cityDir(t, 1, 1)})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer r.Close()
	if _, err := r.Acquire("no-such-venue"); !errors.Is(err, ErrUnknownVenue) {
		t.Errorf("unknown venue: got %v, want ErrUnknownVenue", err)
	}
	if _, err := r.Acquire("../escape"); !errors.Is(err, ErrInvalidID) {
		t.Errorf("invalid id: got %v, want ErrInvalidID", err)
	}
	if _, err := r.Acquire(""); !errors.Is(err, ErrInvalidID) {
		t.Errorf("empty id: got %v, want ErrInvalidID", err)
	}
	// Neither miss is an operational failure: invalid ids are rejected
	// before the load path, and an unknown venue is a client 404 — the
	// error counter a scrape alerts on must stay untouched.
	if got := r.Stats().LoadErrors; got != 0 {
		t.Errorf("LoadErrors = %d after client-side misses, want 0", got)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	dir := cityDir(t, 3, 1)
	// Budget admits roughly one artifact: every artifact here is a few
	// KB; pick the largest single file as the budget so exactly one
	// resident fits.
	var maxFile int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Size() > maxFile {
			maxFile = info.Size()
		}
	}
	r, err := NewRegistry(Config{Dir: dir, MaxBytes: maxFile})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer r.Close()

	ids := []string{sim.VenueID(0, 0), sim.VenueID(1, 0), sim.VenueID(2, 0)}
	for _, id := range ids {
		v, err := r.Acquire(id)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", id, err)
		}
		v.Release()
	}
	st := r.Stats()
	if st.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2 (budget %d, resident %d)", st.Evictions, maxFile, st.ResidentBytes)
	}
	if st.Loaded != 1 {
		t.Errorf("loaded = %d, want 1 under single-artifact budget", st.Loaded)
	}
	if st.ResidentBytes > maxFile {
		t.Errorf("resident %d exceeds budget %d", st.ResidentBytes, maxFile)
	}
	// Re-acquiring an evicted venue is a fresh cold load.
	v, err := r.Acquire(ids[0])
	if err != nil {
		t.Fatalf("re-Acquire(%s): %v", ids[0], err)
	}
	v.Release()
	if got := r.Stats().Loads; got != 4 {
		t.Errorf("loads = %d, want 4 (3 cold + 1 reload)", got)
	}
}

func TestEvictionDefersReleaseToLastHolder(t *testing.T) {
	dir := cityDir(t, 2, 1)
	var maxFile int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Size() > maxFile {
			maxFile = info.Size()
		}
	}
	r, err := NewRegistry(Config{Dir: dir, MaxBytes: maxFile})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer r.Close()

	a, err := r.Acquire(sim.VenueID(0, 0))
	if err != nil {
		t.Fatalf("Acquire a: %v", err)
	}
	// Loading b overflows the budget and evicts a — but a is pinned, so
	// its mapping must survive until the Release below.
	b, err := r.Acquire(sim.VenueID(1, 0))
	if err != nil {
		t.Fatalf("Acquire b: %v", err)
	}
	b.Release()
	if r.Stats().Evictions == 0 {
		t.Fatalf("expected the pinned venue to be evicted from the table")
	}
	// The pinned, evicted venue still answers: its matrices are intact.
	if _, err := a.Snapshot().Service.Locator.Locate(observe(t, 0, 0)); err != nil {
		t.Errorf("evicted-but-pinned venue failed to serve: %v", err)
	}
	if a.refs.Load() != 1 {
		t.Errorf("refs = %d, want 1 (registry ref dropped by eviction, holder remains)", a.refs.Load())
	}
	a.Release()
	if a.refs.Load() != 0 {
		t.Errorf("refs = %d after last release, want 0", a.refs.Load())
	}
	// A fresh acquire must not resurrect the finalized venue.
	a2, err := r.Acquire(sim.VenueID(0, 0))
	if err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	if a2 == a {
		t.Errorf("registry handed back a finalized venue")
	}
	a2.Release()
}

func TestRegistrySingleflight(t *testing.T) {
	dir := cityDir(t, 1, 1)
	r, err := NewRegistry(Config{Dir: dir})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer r.Close()

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := r.Acquire(sim.VenueID(0, 0))
			if err != nil {
				errs[i] = err
				return
			}
			v.Release()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := r.Stats().Loads; got != 1 {
		t.Errorf("loads = %d, want 1 (stampede must singleflight)", got)
	}
}

func TestAcquireZeroAlloc(t *testing.T) {
	dir := cityDir(t, 1, 1)
	r, err := NewRegistry(Config{Dir: dir})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer r.Close()
	id := sim.VenueID(0, 0)
	v, err := r.Acquire(id)
	if err != nil {
		t.Fatalf("warm Acquire: %v", err)
	}
	v.Release()
	allocs := testing.AllocsPerRun(1000, func() {
		v, err := r.Acquire(id)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		_ = v.Snapshot()
		v.Release()
	})
	if allocs != 0 {
		t.Errorf("resident Acquire/Snapshot/Release allocates %.1f/op, want 0", allocs)
	}
}

func TestRegistryList(t *testing.T) {
	dir := cityDir(t, 2, 1)
	r, err := NewRegistry(Config{Dir: dir})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer r.Close()
	v, err := r.Acquire(sim.VenueID(0, 0))
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer v.Release()

	list, err := r.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(list) != 2 {
		t.Fatalf("list has %d venues, want 2: %+v", len(list), list)
	}
	if list[0].ID != sim.VenueID(0, 0) || list[1].ID != sim.VenueID(1, 0) {
		t.Errorf("list not sorted by id: %+v", list)
	}
	if !list[0].Loaded || list[0].Locations == 0 {
		t.Errorf("loaded venue status incomplete: %+v", list[0])
	}
	if list[1].Loaded {
		t.Errorf("cold venue reported loaded: %+v", list[1])
	}
	for _, st := range list {
		if st.Source != "artifact" || st.Bytes <= 0 {
			t.Errorf("bad status: %+v", st)
		}
	}
}

// TestStatusSkipsDrainedVenue: Status and List must pin a resident
// venue before touching its snapshot. A venue whose refcount has
// drained to zero (evicted, last holder gone) refuses the pin, and
// the probes report it as not loaded instead of reading a snapshot
// whose artifact mapping may already be unmapped. Regression test for
// the unpinned Snapshot() reads pinbalance flagged in Status/List.
func TestStatusSkipsDrainedVenue(t *testing.T) {
	dir := cityDir(t, 1, 1)
	r, err := NewRegistry(Config{Dir: dir})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer r.Close()
	id := sim.VenueID(0, 0)
	v, err := r.Acquire(id)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	v.Release()

	lv, ok := r.venues.Load(id)
	if !ok {
		t.Fatal("venue not resident after acquire")
	}
	// Freeze the venue in the eviction race window: still in the map,
	// refcount already at zero. tryRef must refuse to resurrect it.
	// Skip finalize — the mapping is still live; restored below so
	// r.Close tears it down normally.
	lv.(*Venue).refs.Store(0)

	st, err := r.Status(id)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Loaded || st.Generation != 0 || st.Locations != 0 {
		t.Errorf("drained venue reported loaded: %+v", st)
	}
	list, err := r.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(list) != 1 || list[0].Loaded {
		t.Errorf("drained venue reported loaded in list: %+v", list)
	}

	lv.(*Venue).refs.Store(1)
	st, err = r.Status(id)
	if err != nil {
		t.Fatalf("Status after restore: %v", err)
	}
	if !st.Loaded || st.Locations == 0 {
		t.Errorf("pinnable venue status incomplete: %+v", st)
	}
}

// TestRegistryTDBAndLiveIngest covers the .tdb source: without WALDir
// the venue is frozen (no Manager); with WALDir it accepts training
// reports through a per-venue ingest pipeline.
func TestRegistryTDBAndLiveIngest(t *testing.T) {
	dir := t.TempDir()
	db, err := sim.CityConfig{Seed: 42}.BuildVenueDB(0, 0)
	if err != nil {
		t.Fatalf("BuildVenueDB: %v", err)
	}
	if err := trainingdb.SaveFile(filepath.Join(dir, "live-0.tdb"), db); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	frozen, err := NewRegistry(Config{Dir: dir})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	v, err := frozen.Acquire("live-0")
	if err != nil {
		t.Fatalf("Acquire frozen tdb: %v", err)
	}
	if v.Manager() != nil {
		t.Errorf("tdb venue without WALDir must be frozen")
	}
	if _, err := v.Snapshot().Service.Locator.Locate(observe(t, 0, 0)); err != nil {
		t.Errorf("tdb venue failed to serve: %v", err)
	}
	v.Release()
	frozen.Close()

	walDir := t.TempDir()
	live, err := NewRegistry(Config{Dir: dir, WALDir: walDir})
	if err != nil {
		t.Fatalf("NewRegistry live: %v", err)
	}
	defer live.Close()
	lv, err := live.Acquire("live-0")
	if err != nil {
		t.Fatalf("Acquire live tdb: %v", err)
	}
	defer lv.Release()
	mgr := lv.Manager()
	if mgr == nil {
		t.Fatalf("tdb venue with WALDir must be live")
	}
	rep := ingest.Report{
		Name:        "test-report-1",
		Pos:         &ingest.ReportPos{X: 15, Y: 15},
		Observation: observe(t, 0, 0),
	}
	if err := mgr.Submit(rep); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := os.Stat(filepath.Join(walDir, "live-0.wal")); err != nil {
		t.Errorf("per-venue WAL missing: %v", err)
	}
}

// TestSingleVenue: the one-venue registry a single-venue server wraps
// its snapshot source in. Its venue is the resident default, Acquire
// on it is the zero-allocation hot path, any other id is unknown
// without a filesystem probe, and the registry never closes the
// pipeline its caller owns.
func TestSingleVenue(t *testing.T) {
	db, err := sim.CityConfig{Seed: 42}.BuildVenueDB(0, 0)
	if err != nil {
		t.Fatalf("BuildVenueDB: %v", err)
	}
	rebuild := func(db *trainingdb.DB) (*core.Service, error) {
		in, err := core.New(core.WithDB(db))
		if err != nil {
			return nil, err
		}
		return in.Service, nil
	}
	mgr, err := ingest.NewManager(db, rebuild, ingest.Config{WALPath: filepath.Join(t.TempDir(), "r.wal")})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer mgr.Close()
	r := Single("default", mgr.Registry(), mgr)
	if got := r.DefaultID(); got != "default" {
		t.Fatalf("DefaultID = %q, want default", got)
	}
	v, err := r.Acquire(r.DefaultID())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if v.Snapshot() != mgr.Registry().Current() || v.Manager() != mgr {
		t.Errorf("venue does not serve the wrapped source")
	}
	v.Release()
	allocs := testing.AllocsPerRun(1000, func() {
		v, err := r.Acquire("default")
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		_ = v.Snapshot()
		v.Release()
	})
	if allocs != 0 {
		t.Errorf("Single Acquire/Snapshot/Release allocates %.1f/op, want 0", allocs)
	}

	// A venue file under the working directory must not be picked up:
	// the registry has no directory, so its cold path answers unknown.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cwd := cityDir(t, 1, 1)
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	other := sim.VenueID(0, 0)
	if _, err := os.Stat(other + ".ilr"); err != nil {
		t.Fatalf("fixture artifact missing: %v", err)
	}
	if _, err := r.Acquire(other); !errors.Is(err, ErrUnknownVenue) {
		t.Errorf("Acquire(%q) = %v, want ErrUnknownVenue", other, err)
	}
	if _, err := r.Status(other); !errors.Is(err, ErrUnknownVenue) {
		t.Errorf("Status(%q) = %v, want ErrUnknownVenue", other, err)
	}
	if st := r.Stats(); st.Loaded != 1 || st.Loads != 0 || st.LoadErrors != 0 || st.Evictions != 0 {
		t.Errorf("stats %+v, want one resident venue and no loads", st)
	}

	// Close drops the registry's hold; the caller's pipeline stays open.
	r.Close()
	rep := ingest.Report{Name: "single-1", Pos: &ingest.ReportPos{X: 15, Y: 15}, Observation: observe(t, 0, 0)}
	if err := mgr.Submit(rep); err != nil {
		t.Errorf("Submit after registry Close: %v (the registry closed a manager it does not own)", err)
	}
}
