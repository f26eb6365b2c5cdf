package main

// Seeded input generation. Everything a workload feeds the program —
// wi-scan captures, synthetic radio maps, request bodies, report
// streams, probes — is derived from the run's --seed here, outside any
// timed phase, so the same seed always gives the same inputs.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"indoorloc/internal/geom"
	"indoorloc/internal/localize"
	"indoorloc/internal/locmap"
	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/wiscan"
)

// request is one prepared HTTP call with its ground truth.
type request struct {
	path  string
	body  []byte
	venue int        // index into the workload's venue bounds
	truth geom.Point // where the observation was captured
}

// bounds is a venue's floor rectangle in plan-frame feet.
type bounds struct{ w, h float64 }

func (b bounds) contains(p geom.Point) bool {
	return p.X >= 0 && p.Y >= 0 && p.X <= b.w && p.Y <= b.h
}

func locateBody(obs map[string]float64) []byte {
	b, err := json.Marshal(map[string]any{"observation": obs})
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	return b
}

// ---- city-zipf -----------------------------------------------------

// cityConfig sizes the city: 250 campuses × 4 floors = 1000 venues of
// 20–28 entries × 4 APs each.
type cityConfig struct {
	campuses, floors int
	sweeps           int     // training sweeps per grid point
	zipfS            float64 // venue popularity skew
}

var cityFull = cityConfig{campuses: 250, floors: 4, sweeps: 3, zipfS: 1.1}

// cityVenue is one venue's untimed input: its training captures and
// location map, ready for trainingdb.Generate.
type cityVenue struct {
	id       string
	grid     *locmap.Map
	captures *wiscan.Collection
	bounds   bounds
}

type cityInputs struct {
	venues  []cityVenue
	traffic []request // zipf-drawn locates; paced phase takes a prefix, saturated cycles it
	probes  []request // uniform over venues, for the accuracy pass
}

// genCity captures every venue's training survey and draws the
// request and probe streams. Venue popularity is zipf over a seeded
// permutation, so the hot set differs between seeds.
func genCity(cfg cityConfig, seed int64, nTraffic, nProbes int) (*cityInputs, error) {
	in := &cityInputs{}
	type venueEnv struct {
		s  sim.Scenario
		sc *sim.Scanner
	}
	envs := make([]venueEnv, 0, cfg.campuses*cfg.floors)
	for ca := 0; ca < cfg.campuses; ca++ {
		for fl := 0; fl < cfg.floors; fl++ {
			s := sim.CityScenario(ca, fl)
			env, err := s.Environment()
			if err != nil {
				return nil, err
			}
			grid, err := s.TrainingPoints()
			if err != nil {
				return nil, err
			}
			idx := int64(len(envs))
			col := sim.NewScanner(env, seed*7919+idx).CaptureCollection(grid, cfg.sweeps)
			in.venues = append(in.venues, cityVenue{
				id:       sim.VenueID(ca, fl),
				grid:     grid,
				captures: col,
				bounds:   bounds{s.Outline.Width(), s.Outline.Height()},
			})
			envs = append(envs, venueEnv{s: s, sc: sim.NewScanner(env, seed*104729+idx)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(in.venues))
	zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(len(in.venues)-1))
	draw := func(v int) request {
		ve := envs[v]
		p := geom.Pt(rng.Float64()*ve.s.Outline.Width(), rng.Float64()*ve.s.Outline.Height())
		obs := localize.ObservationFromRecords(ve.sc.Capture(p, 3, 0))
		return request{
			path:  "/v1/venues/" + in.venues[v].id + "/locate",
			body:  locateBody(obs),
			venue: v,
			truth: p,
		}
	}
	for i := 0; i < nTraffic; i++ {
		in.traffic = append(in.traffic, draw(perm[zipf.Uint64()]))
	}
	for i := 0; i < nProbes; i++ {
		in.probes = append(in.probes, draw(rng.Intn(len(in.venues))))
	}
	return in, nil
}

// ---- synthetic large maps (campus-scan, fleet-live) ----------------

// mapShape sizes a synthetic single-venue radio map: entries on a
// cols-wide grid at pitch feet, APs on an apCols-wide grid over the
// same floor, every entry hearing its heard nearest APs. It keeps the
// dimensions of the repository's large-map fixtures (BENCH_mapv2:
// 100k × 64 APs, 16 heard; BENCH_repl: 100k × 8 APs, 4 heard) but
// derives means from a path-loss model, so that nearby entries have
// nearby fingerprints and location error is a meaningful number.
type mapShape struct {
	entries, cols  int
	aps, apCols    int
	heard          int
	pitch          float64
	bssidPrefix    string
	shadowSigma    float64 // per-cell spread that keeps fingerprints unique
	obsNoiseSigma  float64 // per-AP noise of an observation
	reportNoiseStd float64 // per-AP noise of a training report
}

var (
	campusFull = mapShape{entries: 100_000, cols: 400, aps: 64, apCols: 8, heard: 16, pitch: 5,
		bssidPrefix: "ca:fe", shadowSigma: 1.5, obsNoiseSigma: 2, reportNoiseStd: 2}
	fleetFull = mapShape{entries: 100_000, cols: 400, aps: 8, apCols: 4, heard: 4, pitch: 5,
		bssidPrefix: "fe:ed", shadowSigma: 1.5, obsNoiseSigma: 2, reportNoiseStd: 2}
)

func (m mapShape) rows() int { return (m.entries + m.cols - 1) / m.cols }

func (m mapShape) bounds() bounds {
	return bounds{float64(m.cols-1) * m.pitch, float64(m.rows()-1) * m.pitch}
}

func (m mapShape) bssid(a int) string {
	return fmt.Sprintf("%s:00:00:%02x:%02x", m.bssidPrefix, a/256, a%256)
}

func (m mapShape) entryName(e int) string { return fmt.Sprintf("pt-%06d", e) }

func (m mapShape) entryPos(e int) geom.Point {
	return geom.Pt(float64(e%m.cols)*m.pitch, float64(e/m.cols)*m.pitch)
}

// apPos spreads the APs on an apCols × (aps/apCols) grid, each at the
// centre of its cell of the floor.
func (m mapShape) apPos(a int) geom.Point {
	b := m.bounds()
	apRows := (m.aps + m.apCols - 1) / m.apCols
	cw, ch := b.w/float64(m.apCols), b.h/float64(apRows)
	return geom.Pt((float64(a%m.apCols)+0.5)*cw, (float64(a/m.apCols)+0.5)*ch)
}

// pathLoss is the mean RSSI of AP a heard at p.
func (m mapShape) pathLoss(a int, p geom.Point) float64 {
	d := math.Max(p.Dist(m.apPos(a)), 1)
	return -25 - 28*math.Log10(d)
}

// nearestAPs returns the heard nearest APs to p (ties to the lower
// index), in ascending AP order.
func (m mapShape) nearestAPs(p geom.Point, dst []int) []int {
	type cand struct {
		d float64
		a int
	}
	var best [64]cand // heard ≤ 64
	n := 0
	for a := 0; a < m.aps; a++ {
		c := cand{p.Dist(m.apPos(a)), a}
		if n == m.heard && c.d >= best[n-1].d {
			continue
		}
		if n < m.heard {
			n++
		}
		i := n - 1
		for ; i > 0 && best[i-1].d > c.d; i-- {
			best[i] = best[i-1]
		}
		best[i] = c
	}
	dst = dst[:0]
	for _, c := range best[:n] {
		dst = append(dst, c.a)
	}
	sort.Ints(dst)
	return dst
}

func clampRSSI(v float64) float64 { return math.Max(-115, math.Min(-1, v)) }

// genMapDB builds the training database. Its sample counts and
// spreads are what a 20-sample survey would have produced.
func genMapDB(m mapShape, seed int64) *trainingdb.DB {
	rng := rand.New(rand.NewSource(seed))
	db := &trainingdb.DB{Entries: make(map[string]*trainingdb.Entry, m.entries)}
	db.BSSIDs = make([]string, m.aps)
	for a := range db.BSSIDs {
		db.BSSIDs[a] = m.bssid(a)
	}
	var near []int
	for e := 0; e < m.entries; e++ {
		pos := m.entryPos(e)
		ent := &trainingdb.Entry{
			Name:  m.entryName(e),
			Pos:   pos,
			PerAP: make(map[string]*trainingdb.APStats, m.heard),
		}
		near = m.nearestAPs(pos, near)
		for _, a := range near {
			ent.PerAP[db.BSSIDs[a]] = &trainingdb.APStats{
				BSSID:  db.BSSIDs[a],
				N:      20,
				Mean:   clampRSSI(m.pathLoss(a, pos) + rng.NormFloat64()*m.shadowSigma),
				StdDev: 2 + rng.Float64()*2,
			}
		}
		db.Entries[ent.Name] = ent
	}
	return db
}

// observeAt is what a device at p hears: the path-loss mean of each of
// its nearest APs plus per-AP noise.
func (m mapShape) observeAt(p geom.Point, rng *rand.Rand, near []int) map[string]float64 {
	near = m.nearestAPs(p, near)
	obs := make(map[string]float64, len(near))
	for _, a := range near {
		obs[m.bssid(a)] = clampRSSI(m.pathLoss(a, p) + rng.NormFloat64()*m.obsNoiseSigma)
	}
	return obs
}

// genMapRequests draws n locates at uniform random points of the
// floor, each with its true position.
func genMapRequests(m mapShape, rng *rand.Rand, path string, n int) []request {
	b := m.bounds()
	out := make([]request, n)
	var near []int
	for i := range out {
		p := geom.Pt(rng.Float64()*b.w, rng.Float64()*b.h)
		out[i] = request{path: path, body: locateBody(m.observeAt(p, rng, near)), truth: p}
	}
	return out
}

// genReports draws n training reports that reinforce existing entries
// by name: the map keeps its shape, so every recompile costs the same.
func genReports(m mapShape, rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	var near []int
	for i := range out {
		e := rng.Intn(m.entries)
		pos := m.entryPos(e)
		near = m.nearestAPs(pos, near)
		obs := make(map[string]float64, len(near))
		for _, a := range near {
			obs[m.bssid(a)] = clampRSSI(m.pathLoss(a, pos) + rng.NormFloat64()*m.reportNoiseStd)
		}
		b, err := json.Marshal(map[string]any{"name": m.entryName(e), "observation": obs})
		if err != nil {
			panic(err)
		}
		out[i] = b
	}
	return out
}
