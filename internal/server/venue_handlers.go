package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"indoorloc/internal/filter"
	"indoorloc/internal/ingest"
	"indoorloc/internal/localize"
	"indoorloc/internal/track"
	"indoorloc/internal/venue"
)

// This file holds the serving handlers — the one family every server
// mounts. Each follows the same frame: resolve the venue from the path
// (or the registry's default for the unversioned routes), pin it for
// the request, answer from its snapshot, release. The resolution adds
// zero allocations on the resident-venue hot path: the id is sliced
// out of r.URL.Path (the router already proved the shape), Acquire is
// a lock-free map read, and the pin is two atomics. On a single-venue
// server the registry is a venue.Single and every route resolves its
// one venue.

// NewMultiVenue builds a server over a venue registry: one process,
// many venues, each lazily loaded and LRU-evicted under the registry's
// memory budget.
//
//	GET    /v1/venues                       → venue listing + registry stats
//	GET    /v1/venues/{venue}               → one venue's status
//	GET    /v1/venues/{venue}/locations     → training locations
//	POST   /v1/venues/{venue}/locate        → localize one observation
//	POST   /v1/venues/{venue}/locate/batch  → localize many observations
//	POST   /v1/venues/{venue}/track/{client}   → stateful tracking
//	DELETE /v1/venues/{venue}/track/{client}   → forget a track
//	POST   /v1/venues/{venue}/train/report  → live training (WAL venues)
//
// Only this constructor mounts the /v1/venues namespace. The
// unversioned routes (/locate, /locate/batch, /locations,
// /track/{client}, /train/report) serve the registry's default venue
// through the same handlers a single-venue server mounts; with no
// default configured they answer venue_not_found. Tracking state is
// scoped per venue — client "cart-7" in one venue never collides with
// "cart-7" in another, and the unversioned routes share the default
// venue's scope.
func NewMultiVenue(vr *venue.Registry, filterFactory func() filter.PositionFilter, opts ...Option) (*Server, error) {
	if vr == nil {
		return nil, errors.New("server: nil venue registry")
	}
	return newServer(vr, modeMulti, nil, filterFactory, opts)
}

// Venues returns the registry a multi-venue server serves from. It is
// nil for single-venue servers: their one-venue registry is internal
// plumbing (closing it would take the server's only venue away), and
// Snapshot exposes their serving state.
func (s *Server) Venues() *venue.Registry {
	if s.mode != modeMulti {
		return nil
	}
	return s.venues
}

// venueID slices the venue id out of a /v1/venues/{venue}... path;
// empty for the unversioned routes (no venue segment).
//
//loclint:hotpath
func venueID(r *http.Request) string {
	p := r.URL.Path
	if len(p) <= len(venuePrefix) || p[:len(venuePrefix)] != venuePrefix {
		return ""
	}
	rest := p[len(venuePrefix):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// errNoDefaultVenue answers unversioned requests when the registry has
// no default venue configured.
var errNoDefaultVenue = errors.New("no default venue configured; use /v1/venues/{venue}/...")

// resolveVenue pins the request's venue: the path's id, or the default
// for the unversioned routes. On false the error response has been
// written. The caller must Release the returned venue.
func (s *Server) resolveVenue(w http.ResponseWriter, r *http.Request) (*venue.Venue, bool) {
	id := venueID(r)
	if id == "" {
		id = s.venues.DefaultID()
		if id == "" {
			writeErrorCode(w, http.StatusNotFound, codeVenueNotFound, errNoDefaultVenue)
			return nil, false
		}
	}
	v, err := s.venues.Acquire(id)
	if err != nil {
		if errors.Is(err, venue.ErrUnknownVenue) || errors.Is(err, venue.ErrInvalidID) {
			writeErrorCode(w, http.StatusNotFound, codeVenueNotFound, err)
		} else {
			writeErrorCode(w, http.StatusInternalServerError, codeVenueLoadFailed, err)
		}
		return nil, false
	}
	return v, true
}

// venuesResponse is the GET /v1/venues body.
type venuesResponse struct {
	Venues   []venue.Status `json:"venues"`
	Registry venue.Stats    `json:"registry"`
}

func (s *Server) handleVenues(w http.ResponseWriter, r *http.Request) {
	list, err := s.venues.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, venuesResponse{Venues: list, Registry: s.venues.Stats()})
}

func (s *Server) handleVenueStatus(w http.ResponseWriter, r *http.Request) {
	// Status never forces a cold load: probing a venue must not churn
	// the LRU or spend a load on an operator's curiosity.
	st, err := s.venues.Status(venueID(r))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleVenueLocations(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	type loc struct {
		Name string  `json:"name"`
		X    float64 `json:"x"`
		Y    float64 `json:"y"`
	}
	db := v.Snapshot().Service.DB
	out := make([]loc, 0, db.Len())
	for _, name := range db.Names() {
		e := db.Entries[name]
		out = append(out, loc{Name: name, X: e.Pos.X, Y: e.Pos.Y})
	}
	writeJSON(w, http.StatusOK, out)
}

//loclint:hotpath
func (s *Server) handleVenueLocate(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	s.locate(w, r, v.Snapshot().Service)
}

//loclint:hotpath
func (s *Server) handleVenueLocateBatch(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	// The pin keeps the venue's mapping alive for the whole batch.
	s.locateBatch(w, r, v.Snapshot().Service)
}

// trackClient extracts the client id from a .../track/{client} path —
// the unversioned /track/{client} and the venue tier's
// /v1/venues/{venue}/track/{client} alike. The router guarantees the
// suffix after the last /track/ is one non-empty segment — an unknown
// subpath like /track/a/b never reaches these handlers (uniform 404).
//
//loclint:hotpath
func trackClient(r *http.Request) string {
	p := r.URL.Path
	return p[strings.LastIndex(p, "/track/")+len("/track/"):]
}

// trackKey scopes a client's tracker slot to its venue; '\x00' cannot
// appear in a venue id, so scopes never collide by concatenation.
func trackKey(v *venue.Venue, client string) string { return v.ID + "\x00" + client }

func (s *Server) handleVenueTrackPost(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	key := trackKey(v, trackClient(r))
	svc := v.Snapshot().Service
	obs, err := parseObservation(r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	est, err := svc.Locator.Locate(obs)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// Per-client filter state is serialised under the client's own
	// lock; the heavy Locate above ran outside it, and other
	// clients' updates proceed in parallel. A DELETE racing this
	// update may orphan the slot after we fetched it — the update
	// then lands on state the next POST will rebuild, which is the
	// same outcome as the DELETE arriving a moment later.
	slotAny, ok := s.trackers.Load(key)
	if !ok {
		slotAny, _ = s.trackers.LoadOrStore(key, &clientTrack{})
	}
	slot := slotAny.(*clientTrack)
	slot.mu.Lock()
	if slot.tr == nil {
		tr, err := track.New(svc.Locator, s.newFilter())
		if err != nil {
			slot.mu.Unlock()
			s.trackers.Delete(key)
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		slot.tr = tr
	}
	pos := slot.tr.Filter.Update(est.Pos)
	slot.mu.Unlock()
	resp := locateResponse{
		X:                pos.X,
		Y:                pos.Y,
		Location:         est.Name,
		ConfidenceRadius: localize.ConfidenceRadius(est, 0.9),
		Algorithm:        svc.Locator.Name(),
	}
	if svc.Names != nil {
		if name, _, ok := svc.Names.Nearest(pos); ok {
			resp.NearestName = name
		}
	}
	for _, room := range svc.Rooms {
		if room.Poly.Contains(pos) {
			resp.Room = room.Name
			break
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleVenueTrackDelete(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	client := trackClient(r)
	if _, existed := s.trackers.LoadAndDelete(trackKey(v, client)); !existed {
		writeErrorCode(w, http.StatusNotFound, codeTrackNotFound, fmt.Errorf("no track for %q", client))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "forgotten"})
}

func (s *Server) handleVenueTrainReport(w http.ResponseWriter, r *http.Request) {
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	mgr := v.Manager()
	if mgr == nil {
		// Artifact-backed venues, .tdb venues without a WAL dir and
		// followers serve a radio map they have no authority to mutate:
		// 409, not 404 — the endpoint and venue both exist, the venue
		// just cannot accept training.
		err := venue.ErrFrozen
		if s.mode == modeFollower {
			err = errors.New("read-only follower: submit training reports to the trainer")
		}
		writeErrorCode(w, http.StatusConflict, codeVenueFrozen, err)
		return
	}
	var req trainRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxTrainBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	reports := req.Reports
	single := len(req.Report.Observation) > 0 || req.Report.Name != "" || req.Report.Pos != nil
	switch {
	case single && len(reports) > 0:
		writeError(w, http.StatusBadRequest, errors.New("give one report or reports, not both"))
		return
	case single:
		reports = []ingest.Report{req.Report}
	case len(reports) == 0:
		writeError(w, http.StatusBadRequest, errors.New("empty request: need a report or reports"))
		return
	}
	if err := mgr.Submit(reports...); err != nil {
		if errors.Is(err, ingest.ErrQueueFull) {
			// The backpressure contract: nothing was journaled, the
			// client should retry the whole batch after the advertised
			// backoff.
			secs := int(mgr.RetryAfter().Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		if errors.Is(err, ingest.ErrInvalidReport) {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"accepted": len(reports)})
}
