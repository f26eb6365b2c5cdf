package main

// The phases every workload shares: set-up (timed, repeated), warm-up
// (discarded), the paced open loop, the saturated closed loop,
// quiesce, and the sequential probe pass that scores accuracy.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"indoorloc/internal/geom"
)

// sizes are the input sizes and fixed rates of all three workloads.
// The full sizes are the benchmark; tests run tiny ones.
type sizes struct {
	city          cityConfig
	cityTraffic   int // distinct zipf requests, cycled by the closed loop
	cityProbes    int
	cityRate      float64 // paced locates/s
	campus        mapShape
	campusProbes  int
	campusRate    float64
	fleet         mapShape
	fleetProbes   int
	fleetRate     float64 // paced follower locates/s
	fleetReports  float64 // paced trainer reports/s
	setupReps     int
	replay        int  // observations replayed per layer in the traced run
	tailQuantiles bool // require p99s in the traced run's replays (needs ≥ 1000 samples)
}

// The paced rates below are the workloads' fixed rates; BENCHMARK.json
// states the same numbers in each workload's "why".
var fullSizes = sizes{
	city: cityFull, cityTraffic: 8192, cityProbes: 2000, cityRate: 400,
	campus: campusFull, campusProbes: 400, campusRate: 35,
	fleet: fleetFull, fleetProbes: 800, fleetRate: 100, fleetReports: 50,
	setupReps: 5, replay: 200, tailQuantiles: true,
}

// phaseShares splits --seconds between a workload's measured phases.
type phaseShares struct{ warm, paced, saturated float64 }

// bench is one run of one workload.
type bench struct {
	seed    int64
	seconds float64
	sz      sizes
	tr      *tracer // nil in the untraced run
	dir     string  // artifacts and WALs, under the working directory
	ids     atomic.Uint64
	conns   [2]*conn
	rec     *record

	mu         sync.Mutex
	violations []string
	clientReqs map[uint64]clientCall // traced run: client side of each request
}

type clientCall struct {
	class string
	rtt   time.Duration
}

// newBench prepares a run whose artifacts and WALs go to a fresh
// directory under workDir.
func newBench(name string, seed int64, seconds float64, traced bool, sz sizes, workDir string) (*bench, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{seed: seed, seconds: seconds, sz: sz, dir: dir,
		rec: newRecord(name, seed, traced), clientReqs: map[uint64]clientCall{}}
	if traced {
		b.tr = &tracer{}
	}
	for i := range b.conns {
		b.conns[i] = newConn(&b.ids)
	}
	return b, nil
}

func (b *bench) close() error {
	for _, c := range b.conns {
		c.close()
	}
	return os.RemoveAll(b.dir)
}

func (b *bench) violation(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.violations) < 20 {
		b.violations = append(b.violations, fmt.Sprintf(format, args...))
	} else if len(b.violations) == 20 {
		b.violations = append(b.violations, "further violations omitted")
	}
}

func (b *bench) phase(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// tracePeriod is how long tracing stays on, then off, in the traced
// run's measured phases. It is kept off any multiple of the program's
// own periods (fleet-live recompiles every 2 s), or periodic work
// would always fall in the same half.
const tracePeriod = 170 * time.Millisecond

// paced runs an open-loop phase and, in the traced run, notes which
// requests were sent while tracing was on.
func (b *bench) paced(n int, rate float64, workers int, do func(w, i int) error) (pacedResult, []bool) {
	traced := make([]bool, n)
	res := runPaced(n, rate, workers, func(w, i int) error {
		traced[i] = b.tr.enabled()
		return do(w, i)
	})
	return res, traced
}

// post sends one request on worker w's connection and, in the traced
// run while tracing is on, remembers its client-side round trip.
func (b *bench) post(w int, class, url string, body []byte) (reply, error) {
	rp, err := b.conns[w].post(url, body)
	if b.tr.enabled() && err == nil {
		b.mu.Lock()
		b.clientReqs[rp.id] = clientCall{class: class, rtt: rp.rtt}
		b.mu.Unlock()
	}
	return rp, err
}

// locateAnswer is the part of a locate response the benchmark checks.
type locateAnswer struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// checkLocate decodes a 2xx locate body and requires the position to
// lie inside the venue. A violation is recorded, not returned: the
// operation itself succeeded.
func (b *bench) checkLocate(rp reply, in bounds) (geom.Point, bool) {
	var a locateAnswer
	if err := json.Unmarshal(rp.body, &a); err != nil {
		b.violation("undecodable locate body %q: %v", rp.body, err)
		return geom.Point{}, false
	}
	p := geom.Pt(a.X, a.Y)
	if !in.contains(p) {
		b.violation("locate answer (%.1f, %.1f) outside the venue (%.0f × %.0f ft)", a.X, a.Y, in.w, in.h)
		return p, false
	}
	return p, true
}

// setup builds the stack sz.setupReps times, reports the median time
// as setup_s and keeps the last stack. Each repetition starts from a
// collected heap; prepare (untimed, may be nil) makes the inputs a
// repetition consumes, and build returns the stack once it has given
// its first correct answer.
func setup[S interface{ close() error }](b *bench, prepare func(), build func(dir string, pt *phaseTimes) (S, error)) (S, phaseTimes, error) {
	var (
		stack S
		times sample
		pts   []phaseTimes
	)
	for rep := 0; rep < b.sz.setupReps; rep++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return stack, phaseTimes{}, err
		}
		if prepare != nil {
			prepare()
		}
		runtime.GC()
		debug.FreeOSMemory()
		var pt phaseTimes
		t0 := time.Now()
		s, err := build(dir, &pt)
		if err != nil {
			return stack, phaseTimes{}, fmt.Errorf("set-up %d: %w", rep, err)
		}
		times = append(times, time.Since(t0).Seconds())
		pts = append(pts, pt)
		if rep == b.sz.setupReps-1 {
			stack = s
			break
		}
		if err := s.close(); err != nil {
			return stack, phaseTimes{}, err
		}
		for _, c := range b.conns {
			c.close()
		}
		if err := os.RemoveAll(dir); err != nil {
			return stack, phaseTimes{}, err
		}
	}
	med := times.median()
	var medPT phaseTimes
	for i, t := range times {
		if t == med {
			medPT = pts[i]
		}
	}
	b.rec.set("setup_s", med, "s")
	b.rec.Samples["setup"] = len(times)
	return stack, medPT, nil
}

// firstAnswer sends one locate: set-up ends at the first correct
// answer, so a wrong or failed one fails the set-up.
func (b *bench) firstAnswer(url string, req request, in bounds) error {
	rp, err := b.conns[0].post(url, req.body)
	if err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	if _, ok := b.checkLocate(rp, in); !ok {
		return fmt.Errorf("first answer is wrong: %s", rp.body)
	}
	return nil
}

// latencyMetrics reports a paced phase's median in ms, and in the
// record its p90, p95, p99 (each only with at least ten samples beyond
// it) and the generator's median lateness.
func (b *bench) latencyMetrics(prefix string, res pacedResult) error {
	lat := durations(res.latency(nil), time.Millisecond)
	b.rec.Samples[prefix+"_paced"] = len(lat)
	p50, err := lat.quantile(0.5)
	if err != nil {
		return err
	}
	b.rec.set(prefix+"_p50_ms", p50, "ms")
	for _, q := range []float64{0.9, 0.95, 0.99} {
		if v, err := lat.quantile(q); err == nil {
			b.rec.set(fmt.Sprintf("%s_p%g_ms", prefix, q*100), v, "ms")
		}
	}
	b.rec.set(prefix+"_late_p50_ms", durations(res.late, time.Millisecond).rank(0.5), "ms")
	return nil
}

// probePass sends every probe in turn on connection 0, checks and
// scores each answer against its truth, and digests the answers.
// extra, when set, sees every probe's reply (fleet-live compares a
// sample against the trainer).
func (b *bench) probePass(base string, probes []request, venueBounds func(request) bounds, extra func(i int, rp reply) error) error {
	var (
		digest = sha256.New()
		errSum float64
		n      int
		ops    opCount
	)
	for i, p := range probes {
		ops.Attempted++
		rp, err := b.conns[0].post(base+p.path, p.body)
		if err != nil {
			ops.Failed++
			continue
		}
		digest.Write(rp.body)
		digest.Write([]byte{'\n'})
		pos, ok := b.checkLocate(rp, venueBounds(p))
		if !ok {
			continue
		}
		errSum += pos.Dist(p.truth)
		n++
		if extra != nil {
			if err := extra(i, rp); err != nil {
				return err
			}
		}
	}
	b.rec.addOps("probe", ops)
	b.rec.Samples["probe"] = n
	b.rec.ProbeDigest = hex.EncodeToString(digest.Sum(nil))
	if n == 0 {
		return fmt.Errorf("no probe answered correctly")
	}
	b.rec.set("mean_error_ft", errSum/float64(n), "ft")
	return nil
}

// capacitySlices is how many back-to-back closed-loop slices the
// saturated phase is cut into; capacity is the median slice's rate,
// so a burst of interference from outside the process moves it only
// when it spans most of the phase.
const capacitySlices = 10

// capacity runs the saturated closed loop on both connections and
// reports completed 2xx locates per second.
func (b *bench) capacity(d time.Duration, do func(w, k int) error) {
	var rates sample
	calls := make([]int, len(b.conns))
	for i := 0; i < capacitySlices; i++ {
		ops, elapsed := runClosed(d/capacitySlices, len(b.conns), func(w, _ int) error {
			calls[w]++
			return do(w, calls[w])
		})
		b.rec.addOps("locate_saturated", ops)
		rates = append(rates, float64(ops.Attempted-ops.Failed)/elapsed.Seconds())
	}
	b.rec.Samples["locate_saturated_slices"] = len(rates)
	b.rec.set("locate_capacity_rps", rates.median(), "1/s")
}

// finish reads the end-of-run metrics and folds violations into the
// record.
func (b *bench) finish() error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.rec.set("peak_rss_mb", rss, "MB")
	b.mu.Lock()
	b.rec.Violations = append(b.rec.Violations, b.violations...)
	b.mu.Unlock()
	return nil
}

// poller samples program state every millisecond until stopped.
type poller struct {
	stop chan struct{}
	done chan struct{}
}

func startPoller(every time.Duration, f func(now time.Time)) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case now := <-t.C:
				f(now)
			}
		}
	}()
	return p
}

func (p *poller) halt() {
	close(p.stop)
	<-p.done
}
