package main

// campus-scan: one static 100k-entry × 64-AP venue served from a
// quantized ILRMAPv2 artifact, as locserved -map-file … -topk 8 serves
// it, with entry-derived names, on the legacy POST /locate handler.
// Each query is the int16 scoring scan plus the O(entries) nearest-name
// lookup; decode and routing are negligible. Kernel, ranking and
// resolve changes show here; front-end changes must not.

import (
	"errors"
	"math/rand"
)

var campusPhases = phaseShares{warm: 0.05, paced: 0.8, saturated: 0.15}

func runCampus(b *bench) error {
	sz := b.sz
	shape := sz.campus
	db := genMapDB(shape, b.seed)
	rng := rand.New(rand.NewSource(b.seed + 1))
	traffic := genMapRequests(shape, rng, "/locate", 1024)
	probes := genMapRequests(shape, rng, "/locate", sz.campusProbes)
	in := shape.bounds()
	vb := func(request) bounds { return in }

	stack, pt, err := setup(b, nil, func(dir string, pt *phaseTimes) (*campusStack, error) {
		s, err := buildCampus(dir, db, b.tr, pt)
		if err != nil {
			return nil, err
		}
		if err := b.firstAnswer(s.ln.base+probes[0].path, probes[0], in); err != nil {
			return nil, errors.Join(err, s.close())
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	defer stack.close()
	db = nil // the artifact is all the program keeps
	b.rec.Config["entries"] = shape.entries
	b.rec.Config["aps"] = shape.aps
	b.rec.Config["heard_per_entry"] = shape.heard
	b.rec.Config["topk"] = campusBuild.TopK
	b.rec.Config["locate_rate"] = sz.campusRate

	warmN := int(sz.campusRate * b.phase(campusPhases.warm).Seconds())
	pacedN := int(sz.campusRate * b.phase(campusPhases.paced).Seconds())
	locate := func(class string, offset int) func(w, i int) error {
		return func(w, i int) error {
			req := traffic[(offset+i)%len(traffic)]
			rp, err := b.post(w, class, stack.ln.base+req.path, req.body)
			if err != nil {
				return err
			}
			b.checkLocate(rp, in)
			return nil
		}
	}
	b.rec.addOps("locate_warm", runPaced(warmN, sz.campusRate, 2, locate("warm", 0)).ops)
	gc0 := readGC()
	stopTrace := b.tr.alternate(tracePeriod)
	paced, traced := b.paced(pacedN, sz.campusRate, 2, locate("locate", warmN))
	b.rec.addOps("locate_paced", paced.ops)
	if err := b.latencyMetrics("locate", paced); err != nil {
		return err
	}
	b.capacity(b.phase(campusPhases.saturated), func(w, k int) error {
		return locate("saturated", w*len(traffic)/2)(w, k)
	})
	gc1 := readGC()
	stopTrace()

	if err := b.probePass(stack.ln.base, probes, vb, nil); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}

	l := b.layers(paced, traced, gc0, gc1, pt)
	rs, err := newReplay(traffic, fixed(stack.svc))
	if err != nil {
		return err
	}
	if err := l.replayLocate(rs, len(traffic), sz.tailQuantiles); err != nil {
		return err
	}
	if err := l.replayResolve(rs, sz.replay); err != nil {
		return err
	}
	l.allocs(stack.srv, traffic, sz.replay)
	return nil
}
