package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// captured is one request body the timing transport kept for the traced
// replay, in the order the client sent it.
type captured struct {
	Kind  string // "grid", "submit" or "report"
	ID    string // grid name, or workflow id (from the 202 body for submissions)
	Shard int    // the daemon shard a submission was routed to
	Body  []byte
}

// timingTransport is the RoundTripper every enactment client uses. It
// times each submit, plan and report call by what the enactor sees:
//
//   - submit: first POST /v1/workflows attempt → first 200 from
//     GET …/plan (a refused attempt retried later is charged to it)
//   - accept: POST /v1/workflows → 202
//   - ack:    POST …/report → 200 ack
//
// With capture on it also keeps every accepted submission and report
// body for the in-process replay.
type timingTransport struct {
	base    http.RoundTripper
	capture bool

	mu        sync.Mutex
	firstTry  time.Time   // start of the current submission's first attempt
	submitted []time.Time // accepted, plan not yet fetched (FIFO)
	submitMs  []stamped
	acceptMs  []float64
	ackMs     []stamped
	refused   int // 429s
	failed    int // other non-2xx answers and transport errors
	calls     int
	bodies    []captured
}

func newTimingTransport(capture bool) *timingTransport {
	return &timingTransport{
		capture: capture,
		base: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	var body []byte
	if t.capture && req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		body = b
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	start := time.Now()
	if req.Method == http.MethodPost && path == "/v1/workflows" {
		t.mu.Lock()
		if t.firstTry.IsZero() {
			t.firstTry = start
		}
		t.mu.Unlock()
	}
	resp, err := t.base.RoundTrip(req)
	if req.Method == http.MethodGet && strings.HasSuffix(path, "/plan") {
		resp, err = t.awaitPlan(req, resp, err)
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	if err != nil {
		t.miss(req.Method, path, end)
		return resp, err
	}
	code := resp.StatusCode
	switch {
	case req.Method == http.MethodPost && path == "/v1/workflows":
		switch code {
		case http.StatusAccepted:
			t.acceptMs = append(t.acceptMs, ms(end.Sub(start)))
			t.submitted = append(t.submitted, t.firstTry)
			t.firstTry = time.Time{}
			if t.capture {
				b, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					return nil, rerr
				}
				resp.Body = io.NopCloser(bytes.NewReader(b))
				var sub wire.Submitted
				if err := json.Unmarshal(b, &sub); err != nil {
					return nil, fmt.Errorf("submission response: %w", err)
				}
				t.bodies = append(t.bodies, captured{Kind: "submit", ID: sub.ID, Shard: sub.Shard, Body: body})
			}
		case http.StatusTooManyRequests:
			t.refused++
			t.submitMs = append(t.submitMs, stamped{end, missMs})
		default:
			t.miss(req.Method, path, end)
		}
	case req.Method == http.MethodGet && strings.HasSuffix(path, "/plan"):
		switch code {
		case http.StatusOK:
			if len(t.submitted) > 0 {
				t.submitMs = append(t.submitMs, stamped{end, ms(end.Sub(t.submitted[0]))})
				t.submitted = t.submitted[1:]
			}
		default:
			t.miss(req.Method, path, end)
		}
	case req.Method == http.MethodPost && strings.HasSuffix(path, "/report"):
		if code != http.StatusOK {
			t.miss(req.Method, path, end)
			break
		}
		t.ackMs = append(t.ackMs, stamped{end, ms(end.Sub(start))})
		if t.capture {
			id := strings.TrimSuffix(strings.TrimPrefix(path, "/v1/workflows/"), "/report")
			t.bodies = append(t.bodies, captured{Kind: "report", ID: id, Body: body})
		}
	case req.Method == http.MethodPut && strings.HasPrefix(path, "/v1/grids/"):
		switch code {
		case http.StatusCreated:
			if t.capture {
				t.bodies = append(t.bodies, captured{Kind: "grid", ID: strings.TrimPrefix(path, "/v1/grids/"), Body: body})
			}
		case http.StatusConflict: // already registered by an earlier round
		default:
			t.failed++
		}
	default:
		if code/100 != 2 && code != http.StatusConflict {
			t.failed++
		}
	}
	return resp, nil
}

// miss counts a failed request and charges it as a miss to the latency
// it belongs to: report batches to ack, everything else to submit.
// Callers hold t.mu.
func (t *timingTransport) miss(method, path string, at time.Time) {
	t.failed++
	if method == http.MethodPost && strings.HasSuffix(path, "/report") {
		t.ackMs = append(t.ackMs, stamped{at, missMs})
	} else {
		t.submitMs = append(t.submitMs, stamped{at, missMs})
	}
}

// planPoll is how often a plan fetch is retried while the workflow is
// still queued. drive polls every 5 ms; retrying inside the transport
// instead times the submit→plan latency to within this interval.
const planPoll = 500 * time.Microsecond

// awaitPlan retries a GET …/plan that answered 409 (queued, not yet
// planned) until the plan is ready, so the caller sees the first 200.
func (t *timingTransport) awaitPlan(req *http.Request, resp *http.Response, err error) (*http.Response, error) {
	deadline := time.Now().Add(requestTimeout)
	for err == nil && resp.StatusCode == http.StatusConflict && time.Now().Before(deadline) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(planPoll)
		resp, err = t.base.RoundTrip(req)
	}
	return resp, err
}

// closedParams fixes a closed-loop workload. The amount of work is a
// function of the run length only, never of how fast the daemon is, so
// two commits do identical work and their memory figures compare.
type closedParams struct {
	shared  bool
	clients int
	perClnt int // workflows (live) or 2-tenant rounds (shared) per client
	seed    uint64
	capture bool
}

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	wall      time.Duration
	workflows int
	rounds    int
	// Makespan sums: adaptive vs its baseline (static for live,
	// isolated planning for shared).
	adaptive, baseline float64
	leaked             int
	t0                 time.Time
	doneAt             []time.Time // workflow completions
	clientEnd          []time.Time // when each client finished its work
	transports         []*timingTransport
	gateErrs           []string
}

// liveScenarios pre-generates one client's private-pool workflows,
// alternating BLAST-24 and WIEN2K-24.
func closedScenarios(p closedParams, client int) ([]*workload.Scenario, error) {
	r := rng.New(p.seed*1_000_003 + uint64(client)*7919 + 0x11fe)
	gp := workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4}
	if p.shared {
		gp = workload.GridParams{InitialResources: 4, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 2}
	}
	ap := workload.AppParams{Parallelism: 24, CCR: 1, Beta: 0.5}
	n := p.perClnt
	if p.shared {
		n *= 2
	}
	out := make([]*workload.Scenario, n)
	for i := range out {
		var err error
		if i%2 == 0 {
			out[i], err = workload.BlastScenario(ap, gp, r)
		} else {
			out[i], err = workload.Wien2kScenario(ap, gp, r)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runClosed drives p.clients enactment clients against the daemon, each
// on its own connection and tenant, until every client has done its
// fixed share of work.
func runClosed(ctx context.Context, base string, p closedParams) (*closedResult, error) {
	scen := make([][]*workload.Scenario, p.clients)
	for c := range scen {
		s, err := closedScenarios(p, c)
		if err != nil {
			return nil, err
		}
		scen[c] = s
	}
	runtime.GC() // the generator's own garbage is collected before, not during, the phase
	res := &closedResult{transports: make([]*timingTransport, p.clients), clientEnd: make([]time.Time, p.clients)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, p.clients)
	res.t0 = time.Now()
	for c := 0; c < p.clients; c++ {
		tt := newTimingTransport(p.capture)
		res.transports[c] = tt
		hc := &http.Client{Transport: tt, Timeout: requestTimeout}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if p.shared {
				errs[c] = sharedClient(ctx, base, hc, p, c, scen[c], res, &mu)
			} else {
				errs[c] = liveClient(ctx, base, hc, p, c, scen[c], res, &mu)
			}
			mu.Lock()
			res.clientEnd[c] = time.Now()
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(res.t0)
	for _, tt := range res.transports {
		tt.base.(*http.Transport).CloseIdleConnections()
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

func liveClient(ctx context.Context, base string, hc *http.Client, p closedParams, c int, scen []*workload.Scenario, res *closedResult, mu *sync.Mutex) error {
	for i, sc := range scen {
		out, err := drive.Run(ctx, drive.Config{
			BaseURL: base,
			Client:  hc,
			Policy:  "aheft",
			Options: wire.Options{VarianceThreshold: 0.2},
			Tenant:  fmt.Sprintf("tenant-%d", c),
			Noise:   0.2,
			Churn:   0.3,
			Seed:    p.seed*1_000_003 + uint64(c)*100_003 + uint64(i),
			Name:    fmt.Sprintf("live-%d-%d", c, i),
		}, sc)
		if err != nil {
			return fmt.Errorf("live client %d workflow %d: %w", c, i, err)
		}
		mu.Lock()
		res.workflows++
		res.doneAt = append(res.doneAt, time.Now())
		res.adaptive += out.AdaptiveMakespan
		res.baseline += out.StaticMakespan
		if out.DaemonMakespan != out.AdaptiveMakespan {
			res.gateErrs = append(res.gateErrs, fmt.Sprintf("%s: daemon makespan %v != enacted %v",
				out.ID, out.DaemonMakespan, out.AdaptiveMakespan))
		}
		mu.Unlock()
	}
	return nil
}

func sharedClient(ctx context.Context, base string, hc *http.Client, p closedParams, c int, scen []*workload.Scenario, res *closedResult, mu *sync.Mutex) error {
	opts := wire.Options{VarianceThreshold: 0.2}
	for round := 0; round < p.perClnt; round++ {
		bl, wn := scen[2*round], scen[2*round+1]
		tenants := []drive.Tenant{
			{Name: fmt.Sprintf("c%d-blast", c), Scenario: bl, Policy: "aheft", Options: opts},
			{Name: fmt.Sprintf("c%d-wien2k", c), Scenario: wn, Policy: "aheft", Options: opts},
		}
		// Alternate who plans first, so contention is not always billed
		// to the same application.
		if round%2 == 1 {
			tenants[0], tenants[1] = tenants[1], tenants[0]
		}
		out, err := drive.RunShared(ctx, drive.SharedConfig{
			BaseURL: base,
			Client:  hc,
			Grid:    fmt.Sprintf("grid-%d", c),
			Pool:    bl.Pool,
			Noise:   0.2,
			Churn:   0.3,
			Seed:    p.seed*1_000_003 + uint64(c)*100_003 + uint64(round),
		}, tenants)
		if err != nil {
			return fmt.Errorf("shared client %d round %d: %w", c, round, err)
		}
		mu.Lock()
		res.rounds++
		res.leaked += out.FinalReservations
		if out.FinalReservations != 0 {
			res.gateErrs = append(res.gateErrs, fmt.Sprintf("grid-%d round %d: %d reservations leaked",
				c, round, out.FinalReservations))
		}
		if err := gridDrained(ctx, hc, base, fmt.Sprintf("grid-%d", c)); err != nil {
			res.gateErrs = append(res.gateErrs, fmt.Sprintf("round %d: %v", round, err))
		}
		for _, to := range out.Tenants {
			res.workflows++
			res.doneAt = append(res.doneAt, time.Now())
			res.adaptive += to.AdaptiveMakespan
			res.baseline += to.ObliviousMakespan
			if to.DaemonMakespan != to.AdaptiveMakespan {
				res.gateErrs = append(res.gateErrs, fmt.Sprintf("%s: daemon makespan %v != enacted %v",
					to.ID, to.DaemonMakespan, to.AdaptiveMakespan))
			}
		}
		mu.Unlock()
	}
	return nil
}

// gridDrained checks that a shared grid holds no compute or transfer
// reservations once every tenant of a round has finished.
func gridDrained(ctx context.Context, hc *http.Client, base, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/grids/"+name, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st wire.GridStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("grid %s status: %w", name, err)
	}
	if st.Reservations != 0 || st.TransferReservations != 0 {
		return fmt.Errorf("grid %s leaked %d compute and %d transfer reservations",
			name, st.Reservations, st.TransferReservations)
	}
	return nil
}
