package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"indoorloc/internal/localize"
	"indoorloc/internal/trainingdb"
)

// tinySizes runs every workload in a second or two: the same phases,
// stack and checks as the benchmark, on small inputs.
var tinySizes = sizes{
	city: cityConfig{campuses: 3, floors: 2, sweeps: 3, zipfS: 1.1}, cityTraffic: 64, cityProbes: 40, cityRate: 200,
	campus: mapShape{entries: 2000, cols: 50, aps: 16, apCols: 4, heard: 8, pitch: 5,
		bssidPrefix: "ca:fe", shadowSigma: 1.5, obsNoiseSigma: 2, reportNoiseStd: 2},
	campusProbes: 40, campusRate: 100,
	fleet: mapShape{entries: 2000, cols: 50, aps: 8, apCols: 4, heard: 4, pitch: 5,
		bssidPrefix: "fe:ed", shadowSigma: 1.5, obsNoiseSigma: 2, reportNoiseStd: 2},
	fleetProbes: 40, fleetRate: 100, fleetReports: 50,
	setupReps: 1, replay: 20,
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	s := make(sample, 1000)
	for i := range s {
		s[i] = float64(1000 - i) // 1..1000, unsorted
	}
	v, err := s.quantile(0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with exactly 10 beyond", v, err)
	}
	if _, err := s[:999].quantile(0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must fail")
	}
	if v, err := s.quantile(0.5); err != nil || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500", v, err)
	}
	if _, err := (sample{}).quantile(0.5); err == nil {
		t.Fatal("quantile of an empty sample must fail")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	// 1 ms apart on one connection; request 0 stalls, so requests due
	// during the stall are sent late and charged for the wait.
	res := runPaced(20, 1000, 1, func(_, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		if i == 7 {
			return fmt.Errorf("refused")
		}
		return nil
	})
	if res.ops.Attempted != 20 || res.ops.Failed != 1 {
		t.Fatalf("ops = %+v, want 20 attempted, 1 failed", res.ops)
	}
	for i := 1; i <= 5; i++ {
		due := time.Duration(i) * time.Millisecond
		if res.late[i] < stall-due-5*time.Millisecond {
			t.Errorf("request %d late by %v, want about %v", i, res.late[i], stall-due)
		}
		if res.lat[i] < res.late[i] {
			t.Errorf("request %d latency %v is shorter than its lateness %v", i, res.lat[i], res.late[i])
		}
	}
	for i, l := range res.late {
		if l < 0 {
			t.Errorf("request %d sent %v before it was due", i, -l)
		}
	}
	if got := len(res.latency(nil)); got != 19 {
		t.Errorf("%d latencies, want 19 (the failed request has none)", got)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	ops, elapsed := runClosed(20*time.Millisecond, 2, func(w, k int) error {
		time.Sleep(time.Millisecond)
		if k%2 == 1 {
			return fmt.Errorf("refused")
		}
		return nil
	})
	if ops.Attempted < 4 || ops.Failed < ops.Attempted/2-2 || ops.Failed > ops.Attempted/2+2 {
		t.Fatalf("ops = %+v, want about half failed", ops)
	}
	if elapsed < 20*time.Millisecond {
		t.Fatalf("closed loop ran %v, want ≥ 20ms", elapsed)
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	cfg := tinySizes.city
	a, err := genCity(cfg, 5, 200, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genCity(cfg, 5, 200, 20)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genCity(cfg, 6, 200, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.traffic, b.traffic) || !reflect.DeepEqual(a.probes, b.probes) {
		t.Fatal("city requests differ between runs of one seed")
	}
	for i := range a.venues {
		if !reflect.DeepEqual(a.venues[i].captures, b.venues[i].captures) {
			t.Fatalf("venue %s captures differ between runs of one seed", a.venues[i].id)
		}
	}
	if reflect.DeepEqual(a.traffic, c.traffic) {
		t.Fatal("seeds 5 and 6 drew the same city requests")
	}
	// The zipf draw is skewed: the hottest venue takes far more than
	// an even share.
	hits := map[int]int{}
	for _, r := range a.traffic {
		hits[r.venue]++
	}
	top := 0
	for _, n := range hits {
		top = max(top, n)
	}
	if top < 2*len(a.traffic)/len(a.venues) {
		t.Fatalf("hottest venue has %d of %d requests; zipf should concentrate them", top, len(a.traffic))
	}

	shape := tinySizes.fleet
	if !sameDB(genMapDB(shape, 3), genMapDB(shape, 3)) {
		t.Fatal("synthetic map differs between runs of one seed")
	}
	if sameDB(genMapDB(shape, 3), genMapDB(shape, 4)) {
		t.Fatal("seeds 3 and 4 gave the same synthetic map")
	}
	r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	if !reflect.DeepEqual(genMapRequests(shape, r1, "/locate", 50), genMapRequests(shape, r2, "/locate", 50)) ||
		!reflect.DeepEqual(genReports(shape, r1, 50), genReports(shape, r2, 50)) {
		t.Fatal("synthetic requests or reports differ between runs of one seed")
	}
}

func sameDB(a, b *trainingdb.DB) bool {
	return reflect.DeepEqual(a.BSSIDs, b.BSSIDs) && reflect.DeepEqual(a.Entries, b.Entries)
}

// Locators that implement each combination of the optional interfaces
// the program type-asserts.
type (
	plainLoc  struct{}
	warmLoc   struct{ plainLoc }
	sourceLoc struct{ plainLoc }
	bothLoc   struct{ plainLoc }
)

func (plainLoc) Locate(localize.Observation) (localize.Estimate, error) {
	return localize.Estimate{}, nil
}
func (plainLoc) Name() string                        { return "plain" }
func (warmLoc) Warm() error                          { return nil }
func (sourceLoc) CompiledView() *trainingdb.Compiled { return &trainingdb.Compiled{} }
func (bothLoc) Warm() error                          { return nil }
func (bothLoc) CompiledView() *trainingdb.Compiled   { return &trainingdb.Compiled{} }

func TestTracedLocatorForwardsOptionalInterfaces(t *testing.T) {
	tr := &tracer{}
	for _, loc := range []localize.Locator{plainLoc{}, warmLoc{}, sourceLoc{}, bothLoc{}} {
		wrapped := tr.locator(loc)
		_, w0 := loc.(localize.Warmer)
		_, w1 := wrapped.(localize.Warmer)
		_, s0 := loc.(localize.CompiledSource)
		_, s1 := wrapped.(localize.CompiledSource)
		if w0 != w1 || s0 != s1 {
			t.Errorf("%T: Warmer %v→%v, CompiledSource %v→%v", loc, w0, w1, s0, s1)
		}
		if s1 && wrapped.(localize.CompiledSource).CompiledView() == nil {
			t.Errorf("%T: CompiledView not forwarded", loc)
		}
	}
}

// TestWorkloadsTracedMatchesUntraced runs every workload at tiny size
// untraced and traced on one seed. Both must pass every output check
// and answer the probe pass byte for byte alike, so tracing cannot have
// changed what the program does (a wrapper hiding CompiledSource, for
// one, would stop replication and fail the fleet workload).
func TestWorkloadsTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var recs [2]*record
			for i, traced := range []bool{false, true} {
				rec, err := runWorkload(name, 7, 1, traced, tinySizes, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.Violations) > 0 {
					t.Fatalf("traced=%v: %s", traced, strings.Join(rec.Violations, "; "))
				}
				if a, f := rec.totals(); f != 0 || a == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed", traced, f, a)
				}
				recs[i] = rec
			}
			if recs[0].ProbeDigest != recs[1].ProbeDigest {
				t.Fatalf("probe digest untraced %s, traced %s", recs[0].ProbeDigest, recs[1].ProbeDigest)
			}
			e0, e1 := recs[0].Metrics["mean_error_ft"].Value, recs[1].Metrics["mean_error_ft"].Value
			if math.Float64bits(e0) != math.Float64bits(e1) {
				t.Fatalf("mean_error_ft untraced %v, traced %v", e0, e1)
			}
			for _, m := range perLayerMetrics {
				if _, ok := recs[1].Metrics[m.name]; !ok {
					t.Errorf("traced run lacks %s", m.name)
				}
			}
			for _, m := range endToEndMetrics {
				if _, ok := recs[0].Metrics[m.name]; !ok {
					t.Errorf("untraced run lacks %s", m.name)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the runs are
// judged by, in step with the metrics the program prints and the
// rates it paces at.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	why := map[string]string{}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		why[w.Name] = w.Why
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	rates := map[string][]float64{
		"city-zipf":   {fullSizes.cityRate},
		"campus-scan": {fullSizes.campusRate},
		"fleet-live":  {fullSizes.fleetRate, fullSizes.fleetReports},
	}
	for w, rs := range rates {
		for _, r := range rs {
			if s := fmt.Sprintf("%g/s", r); !strings.Contains(why[w], s) {
				t.Errorf("%s: why %q does not state the paced rate %s", w, why[w], s)
			}
		}
	}
}
