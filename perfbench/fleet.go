package main

// fleet-live: a trainer with a WAL, live ingest and a replication
// source, plus one follower on its own listener, over a 100k × 8 map.
// One connection sends training reports to the trainer at a fixed
// rate; the other sends paced locates to the follower. WAL append,
// compactor fold and recompile, publish, WAL shipping and the
// follower's recompile all compete with reads on the same CPUs. It is
// the only workload with writes, and it bypasses venue and the int16
// scorer.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"indoorloc/internal/trainingdb"
)

// followerChange is the moment the follower began serving a
// generation.
type followerChange struct {
	at         time.Time
	generation uint64
}

var fleetPhases = phaseShares{warm: 0.1, paced: 0.9}

// runFleet reads the trainer's and the follower's snapshot registries
// many times on purpose: it watches their generations change.
func runFleet(b *bench) error {
	sz := b.sz
	shape := sz.fleet
	rng := rand.New(rand.NewSource(b.seed + 1))
	traffic := genMapRequests(shape, rng, "/locate", 2048)
	probes := genMapRequests(shape, rng, "/locate", sz.fleetProbes)
	warmReports := int(sz.fleetReports * b.phase(fleetPhases.warm).Seconds())
	pacedReports := int(sz.fleetReports * b.phase(fleetPhases.paced).Seconds())
	reports := genReports(shape, rng, warmReports+pacedReports)
	in := shape.bounds()
	vb := func(request) bounds { return in }

	// The manager takes ownership of its database, so every set-up
	// repetition gets a fresh one, generated outside the timed span.
	var db *trainingdb.DB
	stack, pt, err := setup(b, func() { db = genMapDB(shape, b.seed) },
		func(dir string, pt *phaseTimes) (*fleetStack, error) {
			s, err := buildFleet(dir, db, b.tr, pt)
			if err != nil {
				return nil, err
			}
			if err := b.firstAnswer(s.fln.base+probes[0].path, probes[0], in); err != nil {
				return nil, errors.Join(err, s.close())
			}
			return s, nil
		})
	db = nil
	if err != nil {
		return err
	}
	defer stack.close()
	b.rec.Config["entries"] = shape.entries
	b.rec.Config["aps"] = shape.aps
	b.rec.Config["heard_per_entry"] = shape.heard
	b.rec.Config["topk"] = fleetBuild.TopK
	b.rec.Config["locate_rate"] = sz.fleetRate
	b.rec.Config["report_rate"] = sz.fleetReports
	b.rec.Config["flush_reports"] = fleetFlushReports
	b.rec.Config["flush_interval_ms"] = fleetFlushInterval.Milliseconds()

	// Watch the follower: when it starts serving each generation, and
	// the replication and ingest gauges.
	var (
		changes          []followerChange
		observed         atomic.Uint64 // generation of the last recorded change
		queuedMax        int
		lagMax           uint64
		ticks            int
		lastSnap         = stack.fol.Registry().Current() //loclint:allow snapshotonce
		trainerURL       = stack.tln.base + "/train/report"
		followerURL      = stack.fln.base
		acked            = make([]time.Time, len(reports))
		reportsAttempted int
	)
	watch := startPoller(time.Millisecond, func(now time.Time) {
		if cur := stack.fol.Registry().Current(); cur != lastSnap { //loclint:allow snapshotonce
			lastSnap = cur
			changes = append(changes, followerChange{time.Now(), cur.Generation})
			observed.Store(cur.Generation)
		}
		if ticks++; ticks%10 == 0 {
			queuedMax = max(queuedMax, stack.mgr.Stats().Queued)
			lagMax = max(lagMax, stack.fol.Stats().LagSeqs)
		}
	})
	report := func(offset int) func(w, i int) error {
		return func(_, i int) error {
			_, err := b.post(1, "report", trainerURL, reports[offset+i])
			if err == nil {
				acked[offset+i] = time.Now()
			}
			return err
		}
	}
	locate := func(class string, offset int) func(w, i int) error {
		return func(w, i int) error {
			req := traffic[(offset+i)%len(traffic)]
			rp, err := b.post(w, class, followerURL+req.path, req.body)
			if err != nil {
				return err
			}
			b.checkLocate(rp, in)
			return nil
		}
	}
	// both runs the report stream on connection 1 and the locate
	// stream on connection 0 side by side.
	both := func(nLocates, nReports, reportOffset int, locates func(w, i int) error) (loc, rep pacedResult, traced []bool) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep = runPaced(nReports, sz.fleetReports, 1, report(reportOffset))
		}()
		loc, traced = b.paced(nLocates, sz.fleetRate, 1, locates)
		wg.Wait()
		reportsAttempted += nReports
		return loc, rep, traced
	}

	warmN := int(sz.fleetRate * b.phase(fleetPhases.warm).Seconds())
	pacedN := int(sz.fleetRate * b.phase(fleetPhases.paced).Seconds())
	wl, wr, _ := both(warmN, warmReports, 0, locate("warm", 0))
	b.rec.addOps("locate_warm", wl.ops)
	b.rec.addOps("report_warm", wr.ops)

	gc0, ing0 := readGC(), stack.mgr.Stats()
	pacedStart := time.Now()
	stopTrace := b.tr.alternate(tracePeriod)
	paced, rep, traced := both(pacedN, pacedReports, warmReports, locate("locate", warmN))
	b.rec.addOps("locate_paced", paced.ops)
	b.rec.addOps("report", rep.ops)
	if err := b.latencyMetrics("locate", paced); err != nil {
		return err
	}
	if err := b.latencyMetrics("report", rep); err != nil {
		return err
	}
	stopTrace()

	// Quiesce: every accepted report folded, published, and served by
	// the follower — as the watcher has recorded it.
	if err := waitFor(30*time.Second, func() bool {
		return stack.mgr.Stats().Watermark == stack.mgr.WAL().Seq() &&
			observed.Load() == stack.mgr.Registry().Current().Generation //loclint:allow snapshotonce
	}); err != nil {
		return fmt.Errorf("fleet never settled: %w", err)
	}
	watch.halt()
	gc1, ing1 := readGC(), stack.mgr.Stats()
	if head := stack.mgr.WAL().Seq(); head != uint64(reportsAttempted-wr.ops.Failed-rep.ops.Failed) {
		b.violation("trainer WAL head %d, but %d reports were acknowledged", head,
			reportsAttempted-wr.ops.Failed-rep.ops.Failed)
	}

	// Each fold bumps the map generation once and every report here
	// folds, so generation − watermark is the same at every publish,
	// on the trainer and the follower alike: it maps a follower
	// generation to the WAL sequence it covers.
	pubs := stack.pubs.list()
	offset := pubs[0].generation - pubs[0].watermark
	for _, p := range pubs {
		if p.generation-p.watermark != offset {
			b.violation("publish of generation %d covers watermark %d, want %d", p.generation, p.watermark, p.generation-offset)
		}
	}
	var visible, ship sample
	for i := warmReports; i < len(reports); i++ {
		if acked[i].IsZero() {
			continue
		}
		seq := uint64(i + 1) // one writer on a fresh WAL: the i-th report is sequence i+1
		found := false
		for _, c := range changes {
			if c.generation-offset >= seq {
				visible = append(visible, float64(max(c.at.Sub(acked[i]), 0))/1e6)
				found = true
				break
			}
		}
		if !found {
			b.violation("report %d was never served by the follower", seq)
		}
	}
	for _, p := range pubs {
		if !p.at.After(pacedStart) {
			continue
		}
		for _, c := range changes {
			if c.generation >= p.generation {
				ship = append(ship, float64(c.at.Sub(p.at))/1e6)
				break
			}
		}
	}
	b.rec.Samples["visible"] = len(visible)
	b.rec.Samples["follower_generations"] = len(changes)
	if len(visible) == 0 {
		return errors.New("no report became visible on the follower")
	}
	b.rec.set("visible_p50_ms", visible.median(), "ms")

	// Probe pass against the settled follower; every tenth probe is
	// also asked of the trainer, which serves the same generation and
	// must answer byte for byte the same.
	gen := stack.fol.Registry().Current().Generation                //loclint:allow snapshotonce
	if tg := stack.mgr.Registry().Current().Generation; tg != gen { //loclint:allow snapshotonce
		return fmt.Errorf("trainer generation %d, follower %d after quiesce", tg, gen)
	}
	compared := 0
	err = b.probePass(followerURL, probes, vb, func(i int, rp reply) error {
		if i%10 != 0 {
			return nil
		}
		trp, err := b.conns[1].post(stack.tln.base+probes[i].path, probes[i].body)
		if err != nil {
			return fmt.Errorf("trainer probe: %w", err)
		}
		if !bytes.Equal(trp.body, rp.body) {
			b.violation("probe %d: trainer answered %s, follower %s at generation %d", i, trp.body, rp.body, gen)
		}
		compared++
		return nil
	})
	if err != nil {
		return err
	}
	b.rec.Samples["probe_trainer_compared"] = compared
	if g := stack.fol.Registry().Current().Generation; g != gen { //loclint:allow snapshotonce
		b.violation("follower generation moved from %d to %d during the probe pass", gen, g)
	}
	if b.tr == nil {
		return nil
	}

	l := b.layers(paced, traced, gc0, gc1, pt)
	l.set("ingest.swaps", float64(ing1.Swaps-ing0.Swaps))
	l.set("ingest.queued_max", float64(queuedMax))
	l.set("ingest.rejected", float64(ing1.RejectedFull))
	fs := stack.fol.Stats()
	l.set("repl.ship_ms_p50", ship.median())
	l.set("repl.bootstrap_s", pt.bootstrap.Seconds())
	l.set("repl.reconnects", float64(fs.Reconnects))
	l.set("repl.lag_seqs_max", float64(lagMax))
	rs, err := newReplay(traffic[:min(pacedN, len(traffic))], fixed(stack.fol.Registry().Current().Service)) //loclint:allow snapshotonce
	if err != nil {
		return err
	}
	if err := l.replayLocate(rs, len(rs.reqs), sz.tailQuantiles); err != nil {
		return err
	}
	if err := l.replayResolve(rs, sz.replay); err != nil {
		return err
	}
	l.allocs(stack.follower, traffic, sz.replay)
	return nil
}

// waitFor polls cond every 2 ms until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("condition not met in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
