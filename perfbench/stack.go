package main

// All construction of the serving stack lives in this file. It uses
// the same public constructors cmd/locserved does — core.New,
// venue.NewRegistry, ingest.NewManager, repl.NewSource/NewFollower and
// server.New/NewMultiVenue/NewLive/NewFollower — and no deprecated
// core wrapper, so a change to how the program is assembled is made
// here once.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/ingest"
	"indoorloc/internal/repl"
	"indoorloc/internal/server"
	"indoorloc/internal/trainingdb"
	"indoorloc/internal/venue"
)

// Compile floor model, as tdbtool compile and the city generator use.
const (
	floorRSSI  = -95
	floorSigma = 4
)

// listener serves one handler on a loopback port, with the http.Server
// limits locserved sets.
type listener struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		hs: &http.Server{
			Handler:           h,
			MaxHeaderBytes:    64 << 10,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return l, nil
}

func (l *listener) close() error {
	err := l.hs.Close()
	<-l.done
	return err
}

// phaseTimes is the program's set-up work split by trainingdb stage.
type phaseTimes struct {
	generate, compile, quantize, write, open time.Duration
	bootstrap                                time.Duration // follower Start (fleet-live)
}

// timed adds the duration of f to *d.
func timed(d *time.Duration, f func() error) error {
	t0 := time.Now()
	err := f()
	*d += time.Since(t0)
	return err
}

// ---- city-zipf: artifacts served through venue.Registry ------------

type cityStack struct {
	reg    *venue.Registry
	srv    *server.Server
	ln     *listener
	budget int64
}

// buildCity runs Generate → Compile → Quantize → WriteCompiledFile for
// every venue into dir, then serves the directory through a registry
// whose LRU budget is a quarter of the city's artifact bytes.
func buildCity(dir string, in *cityInputs, tr *tracer, pt *phaseTimes) (*cityStack, error) {
	var total int64
	for _, v := range in.venues {
		var db *trainingdb.DB
		var c *trainingdb.Compiled
		path := filepath.Join(dir, v.id+".ilr")
		err := timed(&pt.generate, func() (err error) {
			db, _, err = trainingdb.Generate(v.captures, v.grid, trainingdb.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("venue %s: %w", v.id, err)
		}
		_ = timed(&pt.compile, func() error { c = db.Compile(floorRSSI, floorSigma); return nil })
		_ = timed(&pt.quantize, func() error { c.Quantize(); c.ReleaseFloat64(); return nil })
		if err := timed(&pt.write, func() error { return trainingdb.WriteCompiledFile(path, c) }); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		total += fi.Size()
	}
	s := &cityStack{budget: total / 4}
	var err error
	s.reg, err = venue.NewRegistry(venue.Config{
		Dir:       dir,
		Algorithm: core.AlgoProbabilistic,
		MaxBytes:  s.budget,
	})
	if err != nil {
		return nil, err
	}
	if s.srv, err = server.NewMultiVenue(s.reg, nil); err != nil {
		return nil, errors.Join(err, s.reg.Close())
	}
	if s.ln, err = serve(tr.handler(s.srv)); err != nil {
		return nil, errors.Join(err, s.srv.Close(), s.reg.Close())
	}
	return s, nil
}

func (s *cityStack) close() error {
	return errors.Join(s.ln.close(), s.srv.Close(), s.reg.Close())
}

// ---- campus-scan: one artifact, served like locserved -map-file -topk 8

type campusStack struct {
	in  *core.Instance
	svc *core.Service // in.Service, with its locator traced in the traced run
	srv *server.Server
	ln  *listener
}

// campusBuild is the locserved -map-file … -topk 8 configuration.
var campusBuild = core.BuildConfig{TopK: 8}

func buildCampus(dir string, db *trainingdb.DB, tr *tracer, pt *phaseTimes) (*campusStack, error) {
	var c *trainingdb.Compiled
	path := filepath.Join(dir, "campus.ilr")
	_ = timed(&pt.compile, func() error { c = db.Compile(floorRSSI, floorSigma); return nil })
	_ = timed(&pt.quantize, func() error { c.Quantize(); c.ReleaseFloat64(); return nil })
	if err := timed(&pt.write, func() error { return trainingdb.WriteCompiledFile(path, c) }); err != nil {
		return nil, err
	}
	s := &campusStack{}
	err := timed(&pt.open, func() (err error) {
		s.in, err = core.New(core.WithCompiledFile(path),
			core.WithAlgorithm(core.AlgoProbabilistic), core.WithConfig(campusBuild))
		return err
	})
	if err != nil {
		return nil, err
	}
	s.svc = tr.service(s.in.Service)
	if s.srv, err = server.New(s.svc, nil); err != nil {
		return nil, errors.Join(err, s.in.Close())
	}
	if s.ln, err = serve(tr.handler(s.srv)); err != nil {
		return nil, errors.Join(err, s.srv.Close(), s.in.Close())
	}
	return s, nil
}

func (s *campusStack) close() error {
	return errors.Join(s.ln.close(), s.srv.Close(), s.in.Close())
}

// ---- fleet-live: trainer with WAL + live ingest + replication source,
// and one follower on its own listener.

// Fleet tuning. Replication needs a float64 source, so the trainer
// serves unquantized with top-k 8 (locserved -train-wal … -replicate
// -topk 8), and the follower mirrors it without a name map.
var fleetBuild = core.BuildConfig{TopK: 8}

// The trainer recompiles on locserved's default cadence: every 256
// reports or 2 s, whichever comes first.
const (
	fleetFlushReports  = 256
	fleetFlushInterval = 2 * time.Second
)

// publishLog is the OnPublish hook the benchmark hands the trainer: it
// records when each generation was published and the WAL watermark it
// covers, then forwards to the replication source.
type publishLog struct {
	next func(ingest.PublishEvent)
	mu   sync.Mutex
	pubs []publication
}

type publication struct {
	at         time.Time
	generation uint64
	watermark  uint64
}

func (p *publishLog) onPublish(ev ingest.PublishEvent) {
	at := time.Now()
	p.mu.Lock()
	p.pubs = append(p.pubs, publication{at, ev.Snapshot.Generation, ev.Watermark})
	p.mu.Unlock()
	p.next(ev)
}

func (p *publishLog) list() []publication {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]publication(nil), p.pubs...)
}

type fleetStack struct {
	mgr      *ingest.Manager
	pubs     *publishLog
	trainer  *server.Server
	tln      *listener
	fol      *repl.Follower
	follower *server.Server
	fln      *listener
}

func buildFleet(dir string, db *trainingdb.DB, tr *tracer, pt *phaseTimes) (s *fleetStack, err error) {
	s = &fleetStack{}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
			s = nil
		}
	}()
	rebuild := tr.rebuilder(func(db *trainingdb.DB) (*core.Service, error) {
		in, err := core.New(core.WithDB(db), core.WithAlgorithm(core.AlgoProbabilistic), core.WithConfig(fleetBuild))
		if err != nil {
			return nil, err
		}
		return in.Service, nil
	})
	src := repl.NewSource(repl.SourceConfig{})
	s.pubs = &publishLog{next: src.OnPublish}
	err = timed(&pt.compile, func() (err error) {
		s.mgr, err = ingest.NewManager(db, rebuild, ingest.Config{
			WALPath:       filepath.Join(dir, "reports.wal"),
			FlushReports:  fleetFlushReports,
			FlushInterval: fleetFlushInterval,
			OnPublish:     s.pubs.onPublish,
		})
		return err
	})
	if err != nil {
		return s, err
	}
	src.Bind(s.mgr)
	if s.trainer, err = server.NewLive(s.mgr, nil, server.WithReplicationSource(src)); err != nil {
		return s, err
	}
	if s.tln, err = serve(tr.handler(s.trainer)); err != nil {
		return s, err
	}
	if s.fol, err = repl.NewFollower(repl.FollowerConfig{
		TrainerURL: s.tln.base,
		Build:      fleetBuild,
		Names:      repl.NamesNone,
	}); err != nil {
		return s, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = timed(&pt.bootstrap, func() error { return s.fol.Start(ctx) })
	cancel()
	if err != nil {
		s.fol = nil // Start closes it on failure
		return s, err
	}
	if s.follower, err = server.NewFollower(s.fol, nil); err != nil {
		return s, err
	}
	s.fln, err = serve(tr.handler(s.follower))
	return s, err
}

// close tears down whatever was built, follower first so its WAL
// stream ends before the trainer stops.
func (s *fleetStack) close() error {
	var errs []error
	if s.fln != nil {
		errs = append(errs, s.fln.close())
	}
	if s.follower != nil {
		errs = append(errs, s.follower.Close())
	}
	if s.fol != nil {
		errs = append(errs, s.fol.Close())
	}
	if s.tln != nil {
		errs = append(errs, s.tln.close())
	}
	if s.trainer != nil {
		errs = append(errs, s.trainer.Close())
	}
	if s.mgr != nil {
		errs = append(errs, s.mgr.Close())
	}
	return errors.Join(errs...)
}
