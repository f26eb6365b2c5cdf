// Package server exposes a trained location service over HTTP — the
// deployment shape the paper's motivating applications assume: clients
// (call routers, conference-material servers, surveillance consoles)
// ask "where is this signal vector?" over the network.
//
// # API
//
//	GET  /healthz            → 200 {"status":"ok", ...snapshot metadata...}
//	GET  /algorithms         → the registry names
//	GET  /locations          → the training locations and coordinates
//	GET  /metrics            → Prometheus text exposition (latency
//	                           histograms, route/status counters, gauges)
//	POST /locate             → localize one observation
//	POST /locate/batch       → localize many observations in one call
//	POST /track/{client}     → stateful tracking: filtered per client
//	DELETE /track/{client}   → forget a client's track
//	POST /train/report       → live training: submit fingerprint reports
//
// Requests enter through a purpose-built static router (router.go),
// not http.ServeMux: exact-match dispatch plus the one /track/ prefix
// route, a fixed middleware chain (panic recovery, request-id,
// per-route body/path limits, optional per-route timeout), and an
// always-on metrics layer — all of it adding zero allocations per
// request on the hot path. Unknown paths, unknown /track/ subpaths,
// //-doubled and dot-segment paths answer a uniform JSON 404; method
// mismatches answer 405 with an Allow header; oversized bodies 413;
// oversized paths 414.
//
// /locate accepts either an averaged observation
//
//	{"observation": {"aa:bb:...": -61.5, ...}}
//
// or raw wi-scan records
//
//	{"records": [{"time_millis":1, "bssid":"aa:bb", "rssi":-61}, ...]}
//
// and returns the estimate, the symbolic name, and a confidence
// radius.
//
// /locate/batch accepts many averaged observations at once
//
//	{"observations": [{"aa:bb:...": -61.5, ...}, ...]}
//
// and returns one result per observation in input order; a result is
// either the /locate answer shape or {"error": "..."} — one bad
// observation never fails its batchmates. The batch path is the
// high-throughput shape of the service: the fan-out feeds the shared
// scoring pool directly and the request runs out of a pooled arena
// (decode buffers, observation maps, response encoder), so the
// per-observation allocation cost is a small constant instead of a
// full request's worth of garbage. All handlers are safe for
// concurrent use.
//
// # Consistency model
//
// Every server is venue-backed, and every serving handler runs one
// frame: resolve the request's venue from a venue.Registry (the
// /v1/venues/{venue} id, or the registry's default for the
// unversioned routes), pin it, answer from the one immutable
// core.Snapshot loaded from it, release. A single-venue server is the
// one-venue case: New, NewLive and NewFollower wrap their snapshot
// source in venue.Single, a registry whose one venue is its default
// and is never evicted, so the pin is a map read plus a few atomics.
// That venue serves a forever-current static snapshot (New), whatever
// the ingest compactor last published (NewLive), or whatever the
// replication follower last published (NewFollower). Because the
// estimate, the symbolic name and the room all resolve against the
// one snapshot the request loaded, a hot swap mid-request can never
// produce a torn answer — in-flight requests finish on the old world,
// new requests see the new one — and because the pin outlives the
// answer, an eviction mid-request never unmaps the matrices it reads.
//
// /train/report accepts a single report
//
//	{"name":"room D22", "observation":{"aa:bb:...":-61.5, ...}}
//	{"pos":{"x":12.5,"y":40}, "observation":{...}}
//
// or a batch {"reports":[...]}; accepted reports are journaled to the
// write-ahead log before the 202 acknowledgement. When the bounded
// ingest queue is full the server answers 429 with a Retry-After
// header — explicit backpressure instead of unbounded buffering.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/filter"
	"indoorloc/internal/ingest"
	"indoorloc/internal/localize"
	"indoorloc/internal/metrics"
	"indoorloc/internal/repl"
	"indoorloc/internal/track"
	"indoorloc/internal/venue"
	"indoorloc/internal/wiscan"
)

// DefaultMaxBatch is the observation cap New sets on /locate/batch.
const DefaultMaxBatch = 4096

// maxBatchBody bounds the /locate/batch request body. A full
// DefaultMaxBatch of dense observations is well under a megabyte;
// 8 MiB leaves generous headroom without letting one client pin
// arbitrary memory.
const maxBatchBody = 8 << 20

// Server wraps a trained location service as an http.Handler. It
// serves every request from the snapshot current at the request's
// start, so a live hot-swap never tears an in-flight answer.
type Server struct {
	rt *router
	// alog is the ring-buffer access logger; nil when not configured.
	alog *accessLogger
	// venues is the registry every serving route resolves its venue
	// from: the fleet for NewMultiVenue, a venue.Single otherwise.
	venues *venue.Registry
	// mode records the constructor: it decides which routes exist and
	// the /healthz + /metrics shape.
	mode mode
	// follower is the replication follower this server reads from; nil
	// unless built with NewFollower. A follower server is read-only:
	// /train/report answers 409 venue_frozen, and /healthz + /metrics
	// carry the replication lag gauges.
	follower *repl.Follower
	// replSrc is the trainer-side replication source; nil unless
	// WithReplicationSource mounted the /v1/replicate endpoints.
	replSrc *repl.Source
	// started stamps Close-less uptime for the /metrics gauge.
	started time.Time

	// MaxBatch caps the observations accepted by one /locate/batch
	// request (larger batches are refused with 413). New sets
	// DefaultMaxBatch; adjust before serving.
	MaxBatch int

	// trackers maps venue-scoped client keys (trackKey) →
	// *clientTrack. Each client carries its own lock, so one slow
	// client's filter update never serializes the others' /track
	// traffic.
	trackers sync.Map
	// newFilter builds the per-client tracking filter.
	newFilter func() filter.PositionFilter
}

// mode is which public constructor built the server.
type mode uint8

const (
	modeStatic   mode = iota // New: one frozen venue, no /train/report endpoint
	modeLive                 // NewLive: one venue with a live ingest pipeline
	modeFollower             // NewFollower: one read-only replicated venue
	modeMulti                // NewMultiVenue: the /v1/venues namespace over a fleet
)

// singleVenueID names the one venue of a single-venue server. It
// never appears in a response; it scopes the server's tracker keys
// like any venue id.
const singleVenueID = "default"

// clientTrack is one client's tracking state plus the lock that
// serializes updates to it. Filters are stateful and order-dependent,
// so same-client requests still serialize — but only with each other.
type clientTrack struct {
	mu sync.Mutex
	tr *track.Tracker
}

// Option tunes the serving front end at construction.
type Option func(*serverOptions)

type serverOptions struct {
	routeTimeout  time.Duration
	maxBody       int64
	accessLog     io.Writer
	accessLogRing int
	noMetrics     bool
	replSrc       *repl.Source
}

// WithRouteTimeout puts every route under a deadline: a handler that
// overruns answers 503. The timeout guard buffers the response and
// allocates per request — bounded tail latency traded against the
// hot path's zero-allocation property. Zero disables (the default).
func WithRouteTimeout(d time.Duration) Option {
	return func(o *serverOptions) { o.routeTimeout = d }
}

// WithMaxBody overrides every route's request-body cap (bytes).
// Zero keeps the per-route defaults (1 MiB single-observation
// endpoints, 8 MiB batch and training endpoints).
func WithMaxBody(n int64) Option {
	return func(o *serverOptions) { o.maxBody = n }
}

// WithoutMetrics drops the GET /metrics endpoint (it answers 404 like
// any unknown path). Recording still happens — Metrics() exposes the
// registry — only the HTTP exposition is withheld, for deployments
// that must not serve observability on the same port.
func WithoutMetrics() Option {
	return func(o *serverOptions) { o.noMetrics = true }
}

// WithAccessLog streams one line per request into w through the
// lock-free ring buffer (drop-oldest under pressure; dropped counts
// are exported at /metrics). w is written by exactly one background
// goroutine; if it implements io.Closer, Server.Close closes it.
func WithAccessLog(w io.Writer) Option {
	return func(o *serverOptions) { o.accessLog = w }
}

// WithAccessLogRing sizes the access-log ring (rounded up to a power
// of two). Only meaningful with WithAccessLog.
func WithAccessLogRing(n int) Option {
	return func(o *serverOptions) { o.accessLogRing = n }
}

// WithReplicationSource mounts the trainer-side replication endpoints
// (GET /v1/replicate/snapshot, GET /v1/replicate/wal) backed by src.
// The WAL endpoint is a deliberately unbounded chunked stream, so
// both replication routes are exempt from WithRouteTimeout.
func WithReplicationSource(src *repl.Source) Option {
	return func(o *serverOptions) { o.replSrc = src }
}

// New builds a static server over a trained service: the service is
// wrapped as the one venue's forever-current snapshot. filterFactory
// supplies the per-client tracking filter for /track; nil uses a
// Kalman filter with defaults.
func New(svc *core.Service, filterFactory func() filter.PositionFilter, opts ...Option) (*Server, error) {
	reg, err := core.StaticSnapshot(svc)
	if err != nil {
		return nil, errors.New("server: nil service")
	}
	return newServer(venue.Single(singleVenueID, reg, nil), modeStatic, nil, filterFactory, opts)
}

// NewLive builds a server over a live ingest pipeline: requests are
// answered from the manager's latest published snapshot, POST
// /train/report feeds the pipeline, and /healthz carries the ingest
// counters.
func NewLive(mgr *ingest.Manager, filterFactory func() filter.PositionFilter, opts ...Option) (*Server, error) {
	if mgr == nil {
		return nil, errors.New("server: nil ingest manager")
	}
	return newServer(venue.Single(singleVenueID, mgr.Registry(), mgr), modeLive, nil, filterFactory, opts)
}

// NewFollower builds a read-only server over a started replication
// follower: requests are answered from whatever snapshot the follower
// last published (the same hot-swap consistency as a live server),
// POST /train/report answers 409 venue_frozen (this node holds no
// authority over the radio map — reports belong at the trainer), and
// /healthz + /metrics expose the replication lag and catch-up state.
func NewFollower(f *repl.Follower, filterFactory func() filter.PositionFilter, opts ...Option) (*Server, error) {
	if f == nil || f.Registry() == nil {
		return nil, errors.New("server: follower not started")
	}
	return newServer(venue.Single(singleVenueID, f.Registry(), nil), modeFollower, f, filterFactory, opts)
}

func newServer(vr *venue.Registry, m mode, fol *repl.Follower, filterFactory func() filter.PositionFilter, opts []Option) (*Server, error) {
	if filterFactory == nil {
		filterFactory = func() filter.PositionFilter {
			return &filter.Kalman{Dt: 1, ProcessNoise: 0.6, MeasurementNoise: 7}
		}
	}
	var o serverOptions
	for _, opt := range opts {
		opt(&o)
	}
	s := &Server{
		venues:    vr,
		mode:      m,
		follower:  fol,
		replSrc:   o.replSrc,
		MaxBatch:  DefaultMaxBatch,
		newFilter: filterFactory,
		started:   time.Now(),
	}
	bodyCap := func(def int64) int64 {
		if o.maxBody > 0 {
			return o.maxBody
		}
		return def
	}
	defs := []routeDef{
		{name: "healthz", path: "/healthz", get: s.handleHealth},
		{name: "algorithms", path: "/algorithms", get: s.handleAlgorithms},
	}
	if !o.noMetrics {
		defs = append(defs, routeDef{name: "metrics", path: "/metrics", get: s.handleMetrics})
	}
	if m == modeMulti {
		defs = append(defs,
			routeDef{name: "venues", path: "/v1/venues", get: s.handleVenues},
			routeDef{name: "venue_status", venue: true, path: "", get: s.handleVenueStatus},
			routeDef{name: "venue_locations", venue: true, path: "/locations", get: s.handleVenueLocations},
			routeDef{name: "venue_locate", venue: true, path: "/locate",
				post: s.handleVenueLocate, maxBody: bodyCap(defaultMaxBody)},
			routeDef{name: "venue_locate_batch", venue: true, path: "/locate/batch",
				post: s.handleVenueLocateBatch, maxBody: bodyCap(maxBatchBody)},
			routeDef{name: "venue_track", venue: true, path: "/track/", prefix: true,
				post: s.handleVenueTrackPost, del: s.handleVenueTrackDelete, maxBody: bodyCap(defaultMaxBody)},
			routeDef{name: "venue_train", venue: true, path: "/train/report",
				post: s.handleVenueTrainReport, maxBody: bodyCap(maxTrainBody)},
		)
	}
	// The unversioned routes serve the registry's default venue through
	// the same handlers (they fall back to the default when the path
	// carries no venue id).
	defs = append(defs,
		routeDef{name: "locations", path: "/locations", get: s.handleVenueLocations},
		routeDef{name: "locate", path: "/locate", post: s.handleVenueLocate, maxBody: bodyCap(defaultMaxBody)},
		routeDef{name: "locate_batch", path: "/locate/batch", post: s.handleVenueLocateBatch, maxBody: bodyCap(maxBatchBody)},
		routeDef{name: "track", path: "/track/", prefix: true,
			post: s.handleVenueTrackPost, del: s.handleVenueTrackDelete, maxBody: bodyCap(defaultMaxBody)},
	)
	// A static server has no write path, so /train/report is no
	// endpoint there (404). A follower mounts it to answer a truthful
	// 409 instead: reports belong at the trainer.
	if m != modeStatic {
		defs = append(defs, routeDef{name: "train_report", path: "/train/report",
			post: s.handleVenueTrainReport, maxBody: bodyCap(maxTrainBody)})
	}
	if o.replSrc != nil {
		defs = append(defs,
			routeDef{name: "replicate_snapshot", path: "/v1/replicate/snapshot", get: o.replSrc.ServeSnapshot},
			routeDef{name: "replicate_wal", path: "/v1/replicate/wal", get: o.replSrc.ServeWAL},
		)
	}
	if o.routeTimeout > 0 {
		for i := range defs {
			// The replication endpoints are streams (the WAL tail is
			// unbounded by design; the snapshot body can be large): a
			// buffered timeout guard would either kill healthy followers
			// or buffer an artifact per request.
			if strings.HasPrefix(defs[i].name, "replicate_") {
				continue
			}
			defs[i].timeout = o.routeTimeout
		}
	}
	if o.accessLog != nil {
		names := make([]string, len(defs)+1)
		for i, d := range defs {
			names[i] = d.name
		}
		names[len(defs)] = "other"
		s.alog = newAccessLogger(o.accessLog, o.accessLogRing, names)
	}
	s.rt = newRouter(defs, s.alog)
	return s, nil
}

// Close releases the server's background resources (the access-log
// drainer, when configured). The server must not serve requests after
// Close. Serving state (snapshots, trackers) needs no teardown.
func (s *Server) Close() error {
	if s.alog != nil {
		return s.alog.Close()
	}
	return nil
}

// Metrics returns the serving metrics registry — what GET /metrics
// renders. Route indexes follow Metrics().Names().
func (s *Server) Metrics() *metrics.Registry { return s.rt.metrics }

// Snapshot returns the snapshot a single-venue server currently
// serves — what a request arriving now would answer from. It is nil
// for a multi-venue server: its snapshots belong to evictable venues,
// and one handed out past the pin could alias an unmapped artifact.
func (s *Server) Snapshot() *core.Snapshot {
	if s.mode == modeMulti {
		return nil
	}
	v, err := s.venues.Acquire(s.venues.DefaultID())
	if err != nil {
		return nil
	}
	defer v.Release()
	return v.Snapshot()
}

// ServeHTTP implements http.Handler.
//
//loclint:hotpath
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.rt.ServeHTTP(w, r) }

// locateRequest is the /locate and /track request body.
type locateRequest struct {
	Observation map[string]float64 `json:"observation,omitempty"`
	Records     []recordJSON       `json:"records,omitempty"`
}

// recordJSON mirrors wiscan.Record with stable JSON names.
type recordJSON struct {
	TimeMillis int64  `json:"time_millis"`
	BSSID      string `json:"bssid"`
	SSID       string `json:"ssid,omitempty"`
	Channel    int    `json:"channel,omitempty"`
	RSSI       int    `json:"rssi"`
	Noise      int    `json:"noise,omitempty"`
}

// locateResponse is the /locate and /track response body.
type locateResponse struct {
	X                float64 `json:"x"`
	Y                float64 `json:"y"`
	Location         string  `json:"location,omitempty"`
	NearestName      string  `json:"nearest_name,omitempty"`
	Room             string  `json:"room,omitempty"`
	ConfidenceRadius float64 `json:"confidence_radius_ft"`
	Algorithm        string  `json:"algorithm"`
}

// errorResponse is every error body the service emits, from the
// routing layer down to the handlers: an envelope carrying a stable
// machine-readable code next to the human-readable message.
//
//	{"error": {"code": "venue_not_found", "message": "venue: unknown venue: \"x\""}}
//
// Clients branch on the code; the message is for humans and carries no
// stability promise. The two 404 families stay distinguishable —
// no_route (the path names no endpoint) versus venue_not_found /
// track_not_found (the endpoint exists, the resource does not).
type errorResponse struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// The stable error codes. Add, never repurpose.
const (
	codeBadRequest       = "bad_request"
	codeNoRoute          = "no_route"
	codeVenueNotFound    = "venue_not_found"
	codeTrackNotFound    = "track_not_found"
	codeMethodNotAllowed = "method_not_allowed"
	codeBodyTooLarge     = "body_too_large"
	codeBatchTooLarge    = "batch_too_large"
	codePathTooLong      = "path_too_long"
	codeUnprocessable    = "unprocessable"
	codeQueueFull        = "queue_full"
	codeVenueFrozen      = "venue_frozen"
	codeVenueLoadFailed  = "venue_load_failed"
	codeInternal         = "internal"
	codeTimeout          = "timeout"
)

// writeJSON is the single success/error serialization point; all
// error bodies funnel through it via writeErrorCode.
//
//loclint:errenvelope
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError derives the code from the error and status; call sites
// with a more specific code use writeErrorCode directly.
func writeError(w http.ResponseWriter, status int, err error) {
	writeErrorCode(w, status, codeFor(status, err), err)
}

//loclint:errenvelope
func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: err.Error()}})
}

// codeFor maps an error (and its HTTP status) to the stable code.
//
//loclint:errenvelope
func codeFor(status int, err error) string {
	switch {
	case errors.Is(err, errNoRoute):
		return codeNoRoute
	case errors.Is(err, errMethodNotAllowed):
		return codeMethodNotAllowed
	case errors.Is(err, errPathTooLong):
		return codePathTooLong
	case errors.Is(err, errRouteTimeout):
		return codeTimeout
	case errors.Is(err, errBodyTooLarge):
		return codeBodyTooLarge
	case errors.Is(err, errBatchTooLarge):
		return codeBatchTooLarge
	case errors.Is(err, ingest.ErrQueueFull):
		return codeQueueFull
	case errors.Is(err, ingest.ErrInvalidReport):
		return codeBadRequest
	case errors.Is(err, venue.ErrUnknownVenue), errors.Is(err, venue.ErrInvalidID):
		return codeVenueNotFound
	case errors.Is(err, venue.ErrFrozen):
		return codeVenueFrozen
	}
	switch status {
	case http.StatusBadRequest:
		return codeBadRequest
	case http.StatusNotFound:
		return codeNoRoute
	case http.StatusMethodNotAllowed:
		return codeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return codeBodyTooLarge
	case http.StatusRequestURITooLong:
		return codePathTooLong
	case http.StatusUnprocessableEntity:
		return codeUnprocessable
	case http.StatusTooManyRequests:
		return codeQueueFull
	case http.StatusServiceUnavailable:
		return codeTimeout
	default:
		return codeInternal
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.mode == modeMulti {
		st := s.venues.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"mode":   "multi-venue",
			"venues": st,
		})
		return
	}
	v, ok := s.resolveVenue(w, r)
	if !ok {
		return
	}
	defer v.Release()
	snap := v.Snapshot()
	svc := snap.Service
	body := map[string]any{
		"status":     "ok",
		"algorithm":  svc.Locator.Name(),
		"locations":  svc.DB.Len(),
		"aps":        len(svc.DB.BSSIDs),
		"generation": snap.Generation,
		"built_at":   snap.BuiltAt.UTC().Format(time.RFC3339Nano),
	}
	if mgr := v.Manager(); mgr != nil {
		st := mgr.Stats()
		body["ingest"] = st
		if !st.LastSwap.IsZero() {
			body["last_swap"] = st.LastSwap.UTC().Format(time.RFC3339Nano)
		}
	}
	if s.follower != nil {
		body["mode"] = "follower"
		body["replication"] = s.follower.Stats()
	}
	if s.replSrc != nil {
		body["replication_source"] = s.replSrc.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, core.Algorithms())
}

// parseObservation extracts the observation from a request body.
func parseObservation(r *http.Request) (localize.Observation, error) {
	var req locateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	switch {
	case len(req.Observation) > 0 && len(req.Records) > 0:
		return nil, errors.New("give observation or records, not both")
	case len(req.Observation) > 0:
		return localize.Observation(req.Observation), nil
	case len(req.Records) > 0:
		recs := make([]wiscan.Record, len(req.Records))
		for i, rj := range req.Records {
			recs[i] = wiscan.Record{
				TimeMillis: rj.TimeMillis,
				BSSID:      rj.BSSID,
				SSID:       rj.SSID,
				Channel:    rj.Channel,
				RSSI:       rj.RSSI,
				Noise:      rj.Noise,
			}
		}
		return localize.ObservationFromRecords(recs), nil
	default:
		return nil, errors.New("empty request: need observation or records")
	}
}

// statusFor maps localization errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, localize.ErrEmptyObservation),
		errors.Is(err, localize.ErrNoOverlap),
		errors.Is(err, localize.ErrTooFewAPs):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// decodeStatus maps body-decode failures: a chunked body that outgrew
// its route's cap answers 413 (the router already 413s declared
// lengths), anything else is the client's malformed JSON.
func decodeStatus(err error) int {
	if errors.Is(err, errBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// locate is /locate's body, answering from the pinned venue's service.
func (s *Server) locate(w http.ResponseWriter, r *http.Request, svc *core.Service) {
	obs, err := parseObservation(r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	res, err := svc.Locate(obs)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, locateResponse{
		X:                res.Estimate.Pos.X,
		Y:                res.Estimate.Pos.Y,
		Location:         res.Estimate.Name,
		NearestName:      res.NearestName,
		Room:             res.Room,
		ConfidenceRadius: localize.ConfidenceRadius(res.Estimate, 0.9),
		Algorithm:        svc.Locator.Name(),
	})
}

// batchResponse is the /locate/batch response body. The algorithm is
// stated once; results are per observation, in input order.
type batchResponse struct {
	Algorithm string      `json:"algorithm"`
	Count     int         `json:"count"`
	Results   []batchItem `json:"results"`
}

// batchItem is one observation's answer: the /locate response fields,
// or an error string for observations that failed to localize.
type batchItem struct {
	X                float64 `json:"x"`
	Y                float64 `json:"y"`
	Location         string  `json:"location,omitempty"`
	NearestName      string  `json:"nearest_name,omitempty"`
	Room             string  `json:"room,omitempty"`
	ConfidenceRadius float64 `json:"confidence_radius_ft"`
	Error            string  `json:"error,omitempty"`
}

// errBatchTooLarge distinguishes the 413 case from plain bad input.
var errBatchTooLarge = errors.New("too many observations in batch")

// batchArena is the reusable request-scoped state of one /locate/batch
// call: the decode buffer, the observation maps (cleared and refilled
// in place), the fan-out results, the response items, and an encoder
// bound to a reusable output buffer. Pooled so a serving loop's
// per-observation allocations are the decoder's key strings and the
// scorer's candidate slice, not a fresh copy of all of this.
type batchArena struct {
	body    bytes.Buffer
	obs     []localize.Observation
	results []localize.BatchResult
	items   []batchItem
	out     bytes.Buffer
	enc     *json.Encoder
	// keys interns BSSID strings across requests: a fleet of clients
	// reports the same access points over and over, so after warm-up
	// the decoder stops allocating key strings entirely. Bounded to
	// keep a hostile client from growing it without limit.
	keys map[string]string
}

// maxInternedKeys bounds one arena's BSSID intern table.
const maxInternedKeys = 4096

var batchArenaPool = sync.Pool{New: func() any {
	a := &batchArena{keys: make(map[string]string)}
	a.enc = json.NewEncoder(&a.out)
	return a
}}

// intern returns raw as a string, reusing a previously allocated copy
// when one exists. The map lookup on a []byte key does not allocate.
func (a *batchArena) intern(raw []byte) string {
	if s, ok := a.keys[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if len(a.keys) < maxInternedKeys {
		a.keys[s] = s
	}
	return s
}

// decodeObservations reads the request body into the arena and parses
// {"observations": [...]}, decoding each element into a reused
// observation map. It returns the observation count.
//
// A hand-rolled scanner handles the canonical shape — flat objects of
// plain string keys and numbers — without encoding/json's per-value
// boxing; anything it does not recognise (escaped keys, non-numeric
// values, malformed syntax) falls back to the token-based decoder,
// which produces the user-facing errors.
func (a *batchArena) decodeObservations(body io.Reader, max int) (int, error) {
	a.body.Reset()
	if _, err := a.body.ReadFrom(io.LimitReader(body, maxBatchBody+1)); err != nil {
		return 0, fmt.Errorf("reading request body: %w", err)
	}
	if a.body.Len() > maxBatchBody {
		return 0, errBatchTooLarge
	}
	if n, err, ok := a.decodeFast(max); ok {
		return n, err
	}
	return a.decodeSlow(max)
}

// skipSpace advances past JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// simpleString parses a JSON string with no escapes starting at b[i]
// (which must be '"'), returning the raw bytes between the quotes.
func simpleString(b []byte, i int) (raw []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch {
		case b[j] == '"':
			return b[i+1 : j], j + 1, true
		case b[j] == '\\' || b[j] < 0x20:
			return nil, i, false
		}
	}
	return nil, i, false
}

// number parses a JSON number starting at b[i].
func number(b []byte, i int) (v float64, next int, ok bool) {
	j := i
	for j < len(b) {
		switch c := b[j]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			j++
		default:
			goto done
		}
	}
done:
	if j == i {
		return 0, i, false
	}
	v, err := strconv.ParseFloat(string(b[i:j]), 64)
	if err != nil {
		return 0, i, false
	}
	return v, j, true
}

// decodeFast is the allocation-lean scanner for the canonical batch
// shape. ok=false means "shape not recognised, retry with decodeSlow";
// when ok=true, n and err are the final answer.
//
//loclint:hotpath
func (a *batchArena) decodeFast(max int) (n int, err error, ok bool) {
	b := a.body.Bytes()
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return 0, nil, false
	}
	key, i, sok := simpleString(b, skipSpace(b, i+1))
	if !sok || string(key) != "observations" {
		return 0, nil, false
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != ':' {
		return 0, nil, false
	}
	i = skipSpace(b, i+1)
	if i >= len(b) || b[i] != '[' {
		return 0, nil, false
	}
	i = skipSpace(b, i+1)
	for i < len(b) && b[i] != ']' {
		if n >= max {
			return 0, errBatchTooLarge, true
		}
		if b[i] != '{' {
			return 0, nil, false
		}
		if n == len(a.obs) {
			a.obs = append(a.obs, make(localize.Observation, 8)) //loclint:allow hotpathalloc
		}
		m := a.obs[n]
		clear(m)
		i = skipSpace(b, i+1)
		for i < len(b) && b[i] != '}' {
			raw, j, sok := simpleString(b, i)
			if !sok {
				return 0, nil, false
			}
			j = skipSpace(b, j)
			if j >= len(b) || b[j] != ':' {
				return 0, nil, false
			}
			v, j, nok := number(b, skipSpace(b, j+1))
			if !nok {
				return 0, nil, false
			}
			m[a.intern(raw)] = v
			i = skipSpace(b, j)
			if i < len(b) && b[i] == ',' {
				i = skipSpace(b, i+1)
				if i >= len(b) || b[i] == '}' { // trailing comma
					return 0, nil, false
				}
			} else if i >= len(b) || b[i] != '}' {
				return 0, nil, false
			}
		}
		if i >= len(b) {
			return 0, nil, false
		}
		n++
		i = skipSpace(b, i+1)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			if i >= len(b) || b[i] == ']' { // trailing comma
				return 0, nil, false
			}
		} else if i >= len(b) || b[i] != ']' {
			return 0, nil, false
		}
	}
	if i >= len(b) {
		return 0, nil, false
	}
	i = skipSpace(b, i+1) // past ']'
	if i >= len(b) || b[i] != '}' {
		return 0, nil, false
	}
	if skipSpace(b, i+1) != len(b) {
		return 0, nil, false
	}
	return n, nil, true
}

// decodeSlow walks the buffered body token by token with
// encoding/json. It accepts everything JSON allows (escaped keys,
// whitespace oddities) and is the source of the decode error messages.
func (a *batchArena) decodeSlow(max int) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(a.body.Bytes()))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0, errors.New("bad request body: want a JSON object")
	}
	n := 0
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return 0, fmt.Errorf("bad request body: %w", err)
		}
		key, _ := keyTok.(string)
		if key != "observations" {
			return 0, fmt.Errorf("bad request body: unknown field %q", key)
		}
		if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
			return 0, errors.New("bad request body: observations must be an array")
		}
		for dec.More() {
			if n >= max {
				return 0, errBatchTooLarge
			}
			if n == len(a.obs) {
				a.obs = append(a.obs, make(localize.Observation, 8))
			}
			m := a.obs[n]
			clear(m)
			if err := dec.Decode(&m); err != nil {
				return 0, fmt.Errorf("bad observation %d: %w", n, err)
			}
			n++
		}
		if _, err := dec.Token(); err != nil { // consume ']'
			return 0, fmt.Errorf("bad request body: %w", err)
		}
	}
	if _, err := dec.Token(); err != nil { // consume '}'
		return 0, fmt.Errorf("bad request body: %w", err)
	}
	return n, nil
}

// locateBatch is /locate/batch's body. One snapshot answers the whole
// batch: the fan-out, the name and room lookups, and the reported
// algorithm all come from it.
func (s *Server) locateBatch(w http.ResponseWriter, r *http.Request, svc *core.Service) {
	max := s.MaxBatch
	if max <= 0 {
		max = DefaultMaxBatch
	}
	a := batchArenaPool.Get().(*batchArena)
	defer batchArenaPool.Put(a)
	n, err := a.decodeObservations(r.Body, max)
	if err != nil {
		status := decodeStatus(err)
		if errors.Is(err, errBatchTooLarge) {
			status = http.StatusRequestEntityTooLarge
			err = fmt.Errorf("%w (max %d)", err, max)
		}
		writeError(w, status, err)
		return
	}
	if n == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch: need at least one observation"))
		return
	}
	for len(a.results) < n {
		a.results = append(a.results, localize.BatchResult{})
	}
	results := a.results[:n]
	localize.BatchInto(svc.Locator, a.obs[:n], results)
	items := a.items[:0]
	for i := range results {
		var item batchItem
		if err := results[i].Err; err != nil {
			item.Error = err.Error()
		} else {
			est := results[i].Estimate
			item.X, item.Y = est.Pos.X, est.Pos.Y
			item.Location = est.Name
			item.ConfidenceRadius = localize.ConfidenceRadius(est, 0.9)
			if svc.Names != nil {
				if name, _, ok := svc.Names.Nearest(est.Pos); ok {
					item.NearestName = name
				}
			}
			for _, room := range svc.Rooms {
				if room.Poly.Contains(est.Pos) {
					item.Room = room.Name
					break
				}
			}
		}
		items = append(items, item)
	}
	a.items = items
	// Drop the candidate slices before pooling the arena so one big
	// batch does not pin its estimates across unrelated requests.
	clear(results)
	a.out.Reset()
	if err := a.enc.Encode(batchResponse{
		Algorithm: svc.Locator.Name(),
		Count:     n,
		Results:   items,
	}); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(a.out.Bytes())
}

// metricsBufPool holds the scrape render buffers. One scrape borrows
// one buffer; concurrent scrapes each get their own.
var metricsBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// handleMetrics renders the Prometheus exposition. All rendering
// happens here, off the request hot path; the serving cost of the
// metrics layer is the atomic adds in router.finish.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	buf := metricsBufPool.Get().(*bytes.Buffer)
	defer metricsBufPool.Put(buf)
	buf.Reset()
	gauges := make([]metrics.Gauge, 0, 16)
	var mgr *ingest.Manager
	if s.mode == modeMulti {
		st := s.venues.Stats()
		gauges = append(gauges,
			metrics.Gauge{Name: "indoorloc_venues_loaded",
				Help: "Venues resident in memory.", Value: float64(st.Loaded)},
			metrics.Gauge{Name: "indoorloc_venues_resident_bytes",
				Help: "Accounted bytes of resident venues.", Value: float64(st.ResidentBytes)},
			metrics.Gauge{Name: "indoorloc_venues_budget_bytes",
				Help: "Configured venue memory budget (0 = unbounded).", Value: float64(st.MaxBytes)},
			metrics.Gauge{Name: "indoorloc_venue_loads_total", Counter: true,
				Help: "Completed venue cold loads.", Value: float64(st.Loads)},
			metrics.Gauge{Name: "indoorloc_venue_load_errors_total", Counter: true,
				Help: "Failed venue cold loads.", Value: float64(st.LoadErrors)},
			metrics.Gauge{Name: "indoorloc_venue_evictions_total", Counter: true,
				Help: "Venues evicted by the LRU memory budget.", Value: float64(st.Evictions)},
			metrics.Gauge{Name: "indoorloc_venue_cold_load_p50_seconds",
				Help: "Median venue cold-load latency.", Value: st.ColdLoadP50.Seconds()},
			metrics.Gauge{Name: "indoorloc_venue_cold_load_p99_seconds",
				Help: "99th-percentile venue cold-load latency.", Value: st.ColdLoadP99.Seconds()},
		)
	} else {
		v, ok := s.resolveVenue(w, r)
		if !ok {
			return
		}
		defer v.Release()
		snap := v.Snapshot()
		mgr = v.Manager()
		gauges = append(gauges,
			metrics.Gauge{Name: "indoorloc_snapshot_generation",
				Help: "Radio-map generation of the serving snapshot.", Value: float64(snap.Generation)},
			metrics.Gauge{Name: "indoorloc_snapshot_locations",
				Help: "Training locations in the serving snapshot.", Value: float64(snap.Service.DB.Len())},
		)
	}
	gauges = append(gauges,
		metrics.Gauge{Name: "indoorloc_tracks_active",
			Help: "Clients with live tracking state.", Value: float64(s.ActiveTracks())},
		metrics.Gauge{Name: "indoorloc_uptime_seconds",
			Help: "Seconds since the server was built.", Value: time.Since(s.started).Seconds()},
		metrics.Gauge{Name: "indoorloc_http_panics_total", Counter: true,
			Help: "Handler panics recovered by the router.", Value: float64(s.rt.panics.Load())},
		metrics.Gauge{Name: "indoorloc_http_timeouts_total", Counter: true,
			Help: "Requests cut off by the per-route timeout.", Value: float64(s.rt.timeouts.Load())},
	)
	if s.alog != nil {
		gauges = append(gauges, metrics.Gauge{Name: "indoorloc_accesslog_dropped_total", Counter: true,
			Help: "Access-log entries lost to ring pressure.", Value: float64(s.alog.Dropped())})
	}
	if mgr != nil {
		st := mgr.Stats()
		gauges = append(gauges,
			metrics.Gauge{Name: "indoorloc_ingest_accepted_total", Counter: true,
				Help: "Reports journaled and queued.", Value: float64(st.Accepted)},
			metrics.Gauge{Name: "indoorloc_ingest_rejected_total", Counter: true,
				Help: "Reports refused with queue-full backpressure.", Value: float64(st.RejectedFull)},
			metrics.Gauge{Name: "indoorloc_ingest_folded_total", Counter: true,
				Help: "Reports folded into the master database.", Value: float64(st.Folded)},
			metrics.Gauge{Name: "indoorloc_ingest_queued",
				Help: "Accepted-but-unfolded backlog.", Value: float64(st.Queued)},
			metrics.Gauge{Name: "indoorloc_ingest_swaps_total", Counter: true,
				Help: "Published radio-map snapshots.", Value: float64(st.Swaps)},
		)
	}
	if s.follower != nil {
		st := s.follower.Stats()
		caughtUp := 0.0
		if st.State == repl.StateStreaming {
			caughtUp = 1
		}
		gauges = append(gauges,
			metrics.Gauge{Name: "indoorloc_repl_lag_seqs",
				Help: "WAL sequences the follower is behind the trainer head.", Value: float64(st.LagSeqs)},
			metrics.Gauge{Name: "indoorloc_repl_lag_bytes",
				Help: "WAL bytes the follower is behind the trainer head.", Value: float64(st.LagBytes)},
			metrics.Gauge{Name: "indoorloc_repl_lag_seconds",
				Help: "Seconds since replication last made progress (0 when caught up).", Value: st.LagSeconds},
			metrics.Gauge{Name: "indoorloc_repl_applied_seq",
				Help: "Last WAL sequence folded into the replica.", Value: float64(st.AppliedSeq)},
			metrics.Gauge{Name: "indoorloc_repl_caught_up",
				Help: "1 while streaming at the trainer head, 0 while bootstrapping, catching up or disconnected.", Value: caughtUp},
			metrics.Gauge{Name: "indoorloc_repl_bootstraps_total", Counter: true,
				Help: "Successful snapshot bootstraps.", Value: float64(st.Bootstraps)},
			metrics.Gauge{Name: "indoorloc_repl_reconnects_total", Counter: true,
				Help: "WAL stream teardowns and reconnect attempts.", Value: float64(st.Reconnects)},
			metrics.Gauge{Name: "indoorloc_repl_regressions_total", Counter: true,
				Help: "World resets: trainer epoch changes, head regressions, divergences.", Value: float64(st.Regressions)},
			metrics.Gauge{Name: "indoorloc_repl_recompiles_total", Counter: true,
				Help: "Replica recompiles triggered by trainer publishes.", Value: float64(st.Recompiles)},
		)
	}
	if s.replSrc != nil {
		st := s.replSrc.Stats()
		ready := 0.0
		if st.Ready {
			ready = 1
		}
		gauges = append(gauges,
			metrics.Gauge{Name: "indoorloc_repl_source_ready",
				Help: "1 when a bootstrap bundle is captured and servable.", Value: ready},
			metrics.Gauge{Name: "indoorloc_repl_source_generation",
				Help: "Generation of the captured bootstrap bundle.", Value: float64(st.Generation)},
			metrics.Gauge{Name: "indoorloc_repl_source_captures_total", Counter: true,
				Help: "Publish events captured as bootstrap bundles.", Value: float64(st.Captures)},
			metrics.Gauge{Name: "indoorloc_repl_source_capture_errors_total", Counter: true,
				Help: "Publish events that could not be captured.", Value: float64(st.CaptureErrors)},
		)
	}
	s.rt.metrics.WritePrometheus(buf, gauges)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// trainRequest is the /train/report body: either one report's fields
// inline or a batch under "reports".
type trainRequest struct {
	ingest.Report
	Reports []ingest.Report `json:"reports,omitempty"`
}

// maxTrainBody bounds the /train/report request body, mirroring the
// batch-locate bound.
const maxTrainBody = 8 << 20

// ActiveTracks returns the number of clients with tracking state.
func (s *Server) ActiveTracks() int {
	n := 0
	s.trackers.Range(func(_, _ any) bool { n++; return true })
	return n
}
