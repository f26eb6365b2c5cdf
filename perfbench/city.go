package main

// city-zipf: 1000 small venues served from quantized artifacts through
// the venue registry under a quarter-city LRU budget, with zipf venue
// popularity. Per-request work is routing, JSON, Registry.Acquire,
// cold mmap loads and LRU eviction; scoring a 4-AP, ~24-entry map is
// trivial. Front-end and registry changes show here; a scoring-kernel
// change must not.

import (
	"errors"
	"strings"
	"time"

	"indoorloc/internal/core"
)

var cityPhases = phaseShares{warm: 0.1, paced: 0.6, saturated: 0.3}

func runCity(b *bench) error {
	sz := b.sz
	in, err := genCity(sz.city, b.seed, sz.cityTraffic, sz.cityProbes)
	if err != nil {
		return err
	}
	vb := func(r request) bounds { return in.venues[r.venue].bounds }
	stack, pt, err := setup(b, nil, func(dir string, pt *phaseTimes) (*cityStack, error) {
		s, err := buildCity(dir, in, b.tr, pt)
		if err != nil {
			return nil, err
		}
		first := in.probes[0]
		if err := b.firstAnswer(s.ln.base+first.path, first, vb(first)); err != nil {
			return nil, errors.Join(err, s.close())
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	defer stack.close()
	b.rec.Config["venues"] = len(in.venues)
	b.rec.Config["zipf_s"] = sz.city.zipfS
	b.rec.Config["budget_bytes"] = stack.budget
	b.rec.Config["locate_rate"] = sz.cityRate

	warmN := int(sz.cityRate * b.phase(cityPhases.warm).Seconds())
	pacedN := int(sz.cityRate * b.phase(cityPhases.paced).Seconds())
	locate := func(class string, offset int) func(w, i int) error {
		return func(w, i int) error {
			req := in.traffic[(offset+i)%len(in.traffic)]
			rp, err := b.post(w, class, stack.ln.base+req.path, req.body)
			if err != nil {
				return err
			}
			b.checkLocate(rp, vb(req))
			return nil
		}
	}
	b.rec.addOps("locate_warm", runPaced(warmN, sz.cityRate, 2, locate("warm", 0)).ops)

	var residentMax int64
	poll := startPoller(10*time.Millisecond, func(time.Time) {
		if rb := stack.reg.Stats().ResidentBytes; rb > residentMax {
			residentMax = rb
		}
	})
	stats0, gc0 := stack.reg.Stats(), readGC()
	stopTrace := b.tr.alternate(tracePeriod)
	paced, traced := b.paced(pacedN, sz.cityRate, 2, locate("locate", warmN))
	b.rec.addOps("locate_paced", paced.ops)
	if err := b.latencyMetrics("locate", paced); err != nil {
		return err
	}
	b.capacity(b.phase(cityPhases.saturated), func(w, k int) error {
		return locate("saturated", w*len(in.traffic)/2)(w, k)
	})
	gc1, stats1 := readGC(), stack.reg.Stats()
	poll.halt()
	stopTrace()

	if err := b.probePass(stack.ln.base, in.probes, vb, nil); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}

	// Traced run: per-layer metrics.
	l := b.layers(paced, traced, gc0, gc1, pt)
	reqs := in.traffic[warmN : warmN+min(pacedN, len(in.traffic)-warmN)]
	l.venue(stack.reg, stats0, stats1, residentMax, reqs)
	rs, err := newReplay(reqs, func(r request, f func(*core.Service) error) error {
		v, err := stack.reg.Acquire(venueOf(r.path))
		if err != nil {
			return err
		}
		defer v.Release()
		return f(v.Snapshot().Service)
	})
	if err != nil {
		return err
	}
	if err := l.replayLocate(rs, len(reqs), sz.tailQuantiles); err != nil {
		return err
	}
	if err := l.replayResolve(rs, sz.replay); err != nil {
		return err
	}
	l.allocs(stack.srv, reqs, sz.replay)
	return nil
}

// venueOf extracts the venue id from /v1/venues/{id}/locate.
func venueOf(path string) string {
	id := strings.TrimPrefix(path, "/v1/venues/")
	return id[:strings.IndexByte(id, '/')]
}
