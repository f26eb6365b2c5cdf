package main

// Load generation: each worker owns one keep-alive connection, so a
// workload never opens more connections than it has workers (at most
// nproc = 2). The paced phase is an open loop — request i is due at
// start + i/rate whether or not earlier requests have returned — and
// every latency is measured from the due time, so a stall also
// charges the requests it delayed. The saturated phase is a closed
// loop: each worker sends its next request when the last returns.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one keep-alive HTTP connection.
type conn struct {
	client *http.Client
	ids    *atomic.Uint64 // request ids for trace spans; shared by a workload's conns
}

func newConn(ids *atomic.Uint64) *conn {
	return &conn{
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		ids: ids,
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// reply is one completed call.
type reply struct {
	id   uint64
	body []byte
	rtt  time.Duration // send to last body byte
}

// post sends body to url. A transport error or a non-2xx status is an
// error; the reply still carries whatever was received.
func (c *conn) post(url string, body []byte) (reply, error) {
	rp := reply{id: c.ids.Add(1)}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return rp, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqIDHeader, strconv.FormatUint(rp.id, 10))
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return rp, err
	}
	rp.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.rtt = time.Since(t0)
	if err != nil {
		return rp, err
	}
	if resp.StatusCode/100 != 2 {
		return rp, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(rp.body))
	}
	return rp, nil
}

// opCount tallies one operation class.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// pacedResult is an open-loop phase's record, indexed by request.
type pacedResult struct {
	ops  opCount
	lat  []time.Duration // due time → completion
	late []time.Duration // due time → actual send
	ok   []bool
}

// latency returns the latencies of the successful requests that keep
// says to keep (all of them when keep is nil).
func (p pacedResult) latency(keep func(i int) bool) []time.Duration {
	var out []time.Duration
	for i, ok := range p.ok {
		if ok && (keep == nil || keep(i)) {
			out = append(out, p.lat[i])
		}
	}
	return out
}

// runPaced issues n requests due at start + i/rate, spread over the
// given workers (one connection each). do performs request i on
// worker w; it runs only once request i is due.
func runPaced(n int, rate float64, workers int, do func(w, i int) error) pacedResult {
	var (
		next  atomic.Int64
		res   = pacedResult{lat: make([]time.Duration, n), late: make([]time.Duration, n), ok: make([]bool, n)}
		wg    sync.WaitGroup
		start = time.Now()
	)
	interval := float64(time.Second) / rate
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				err := do(w, i)
				res.lat[i] = time.Since(due)
				res.late[i] = sent.Sub(due)
				res.ok[i] = err == nil
			}
		}(w)
	}
	wg.Wait()
	res.ops.Attempted = n
	for _, ok := range res.ok {
		if !ok {
			res.ops.Failed++
		}
	}
	return res
}

// runClosed keeps every worker busy back to back for d and returns
// the operation counts and the phase's wall time. do receives the
// worker and that worker's call count.
func runClosed(d time.Duration, workers int, do func(w, k int) error) (opCount, time.Duration) {
	var (
		attempted, failed atomic.Int64
		wg                sync.WaitGroup
		start             = time.Now()
		deadline          = start.Add(d)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				attempted.Add(1)
				if do(w, k) != nil {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return opCount{Attempted: int(attempted.Load()), Failed: int(failed.Load())}, time.Since(start)
}
