package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neutronsim/internal/server"
)

// The load generator is open loop and honest: it never retries, counts
// every refusal (429/503), server error and timeout as failed, times each
// request from when it was due rather than when it was sent, and opens
// at most one connection per CPU. Exact jobs are followed over the SSE
// stream /v1/jobs/{id}/events to their terminal state and the result is
// then read from /v1/jobs/{id}; polling would quantise latency and a
// retrying client would hide refusals.

// requestTimeout bounds one request end to end, SSE wait included. A
// request that takes longer counts as failed.
const requestTimeout = 10 * time.Second

// sendGrace is how long past the end of a phase the generator keeps
// sending requests that fell behind schedule. Requests still unsent after
// it count as failed: the server could not absorb the offered rate.
const sendGrace = time.Second

// Tiers name which serving layer answered a request.
const (
	tierCache     = "cache"
	tierSurrogate = "surrogate"
	tierExact     = "exact"
)

// request is one generated request of a serve workload.
type request struct {
	raw  *server.CampaignRequest
	body []byte // the JSON body POSTed to /v1/campaigns
}

func newRequest(r *server.CampaignRequest) request {
	body, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("marshal generated request: %v", err)) // plain data always marshals
	}
	return request{raw: r, body: body}
}

// outcome is what happened to one request.
type outcome struct {
	sent    bool
	late    time.Duration // send time minus due time
	latency time.Duration // completion time minus due time
	tier    string
	jobID   string
	result  []byte // campaign result body as the client received it
	trace   []byte // the job's GET /v1/jobs/{id}/trace body, when traced
	err     error
}

// client talks to one neutrond instance over at most conns connections.
type client struct {
	base  string
	conns int
	hc    *http.Client
	// traceJobs makes openLoop fetch each exact job's trace right after
	// its answer, on the same connection. Set it only between phases.
	traceJobs bool
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, conns: conns, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do submits one campaign and follows it to its answer.
func (c *client) do(ctx context.Context, r request) outcome {
	var o outcome
	resp, err := c.post(ctx, "/v1/campaigns", r.body)
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.err = fmt.Errorf("read response: %w", err)
		return o
	}
	switch {
	case resp.StatusCode == http.StatusOK && resp.Header.Get("X-Cache") == "hit":
		o.tier, o.result = tierCache, body
	case resp.StatusCode == http.StatusOK && resp.Header.Get("X-Cache") == "surrogate":
		o.tier, o.result = tierSurrogate, body
	case resp.StatusCode == http.StatusAccepted:
		var info server.JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			o.err = fmt.Errorf("decode 202 body: %w", err)
			return o
		}
		o.tier, o.jobID = tierExact, info.ID
		o.result, o.err = c.await(ctx, info.ID)
	default:
		o.err = fmt.Errorf("POST /v1/campaigns: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return o
}

func (c *client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.hc.Do(req)
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// await waits on the job's SSE stream for its terminal state and then
// fetches the finished job's result.
func (c *client) await(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	state, err := readTerminalState(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("job %s events: %w", id, err)
	}
	if state.State != server.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", id, state.State, state.Error)
	}
	body, err := c.get(ctx, "/v1/jobs/"+id)
	if err != nil {
		return nil, err
	}
	var info server.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("decode job %s: %w", id, err)
	}
	return info.Result, nil
}

// readTerminalState reads SSE frames until the "state" event.
func readTerminalState(r io.Reader) (server.JobInfo, error) {
	var info server.JobInfo
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &info)
			return info, err
		}
	}
	if err := sc.Err(); err != nil {
		return info, err
	}
	return info, io.ErrUnexpectedEOF
}

// phase is the record of one run of the generator. Each run starts
// from a freshly collected heap, so that garbage left by the previous
// phase and its answer checks is not collected inside the timed one, and
// runs under a speed probe (see calib.go), whose CPU time cpu leaves out.
type phase struct {
	outcomes []outcome
	wall     time.Duration // first due time to last completion
	cpu      time.Duration // process CPU time over the same span
	speed    probeResult   // the speed probe's samples over the span
}

// openLoop offers reqs at a fixed rate, evenly spaced, for dur. Workers
// take requests strictly in schedule order, so a stalled connection
// delays every later request and that wait is charged to them.
func (c *client) openLoop(ctx context.Context, reqs []request, rate float64, dur time.Duration) phase {
	n := int(rate * dur.Seconds())
	if n > len(reqs) {
		n = len(reqs)
	}
	out := make([]outcome, n)
	runtime.GC()
	var ph phase
	ph.cpu, ph.wall, ph.speed = measureCPU(func() {
		start := time.Now()
		stopSending := start.Add(dur + sendGrace)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < c.conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					sleepUntil(due)
					sendAt := time.Now()
					if sendAt.After(stopSending) {
						out[i] = outcome{err: fmt.Errorf("not sent: %v behind schedule", sendAt.Sub(due).Round(time.Millisecond))}
						continue
					}
					o := c.do(ctx, reqs[i])
					o.sent = true
					o.late = sendAt.Sub(due)
					o.latency = time.Since(due)
					if c.traceJobs && o.jobID != "" {
						o.trace, _ = c.get(ctx, "/v1/jobs/"+o.jobID+"/trace")
					}
					out[i] = o
				}
			}()
		}
		wg.Wait()
	})
	ph.outcomes = out
	return ph
}

// closedLoop sends reqs as fast as the connections allow, each worker
// sending its next request when the previous one is answered.
func (c *client) closedLoop(ctx context.Context, reqs []request) phase {
	out := make([]outcome, len(reqs))
	runtime.GC()
	var ph phase
	ph.cpu, ph.wall, ph.speed = measureCPU(func() {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < c.conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(reqs) {
						return
					}
					t0 := time.Now()
					o := c.do(ctx, reqs[i])
					o.sent = true
					o.latency = time.Since(t0)
					out[i] = o
				}
			}()
		}
		wg.Wait()
	})
	ph.outcomes = out
	return ph
}

// latenciesMS returns the latencies of answered requests, optionally of
// one tier only ("" for all).
func (p phase) latenciesMS(tier string) []float64 {
	var xs []float64
	for _, o := range p.outcomes {
		if o.err == nil && (tier == "" || o.tier == tier) {
			xs = append(xs, ms(o.latency))
		}
	}
	return xs
}

func (p phase) failed() int {
	n := 0
	for _, o := range p.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}

// lateMS returns the send lateness of every sent request.
func (p phase) lateMS() []float64 {
	var xs []float64
	for _, o := range p.outcomes {
		if o.sent {
			xs = append(xs, ms(o.late))
		}
	}
	return xs
}

// backlogGrew reports whether the generator fell further and further
// behind: the median lateness of the last tenth of the schedule exceeds
// limit.
func (p phase) backlogGrew(limitMS float64) bool {
	n := len(p.outcomes)
	if n == 0 {
		return false
	}
	tail := p.outcomes[n-n/10-1:]
	var xs []float64
	for _, o := range tail {
		if !o.sent {
			return true
		}
		xs = append(xs, ms(o.late))
	}
	return median(xs) > limitMS
}
