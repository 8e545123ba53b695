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
	"sync"
	"time"

	"aheft/internal/cost"
	datamodel "aheft/internal/data"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/rng"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

const (
	// intakeRate is the fixed open-loop arrival rate of the measured
	// phase (wf/s), about a third of the 2-connection capacity on a
	// 2-core box.
	intakeRate = 150.0
	// rampStep is how long each ramp rate is held; rampLimitMs is the
	// latency limit on its tail; rampGrowMs is how much the generator's
	// lateness may grow from the step's first quarter to its last.
	rampStep    = 1500 * time.Millisecond
	rampLimitMs = 50.0
	rampGrowMs  = 5.0
	// rampAbortLate skips the rest of a step once the generator is this
	// far behind: the rate is plainly overloaded.
	rampAbortLate = 500 * time.Millisecond
	// saturatedPerSecond is how many back-to-back requests per second of
	// -seconds the capacity phase issues.
	saturatedPerSecond = 100
	// rampBisections refine the highest passing rate between the last
	// passing and the first failing doubling; rampCap bounds the ramp.
	rampBisections = 4
	rampCap        = 4800.0
)

// bodyGen generates distinct analytic submission bodies from a seed: 40%
// random-60 DAGs (CCR 2, β 0.5, 8 resources, 4 pool events), 20%
// BLAST-24, 20% WIEN2K-24 and 20% data-aware scenarios with a file
// catalog. No two bodies repeat.
type bodyGen struct {
	r *rng.Source
	n int
}

type intakeBody struct {
	class string
	body  []byte
}

func (g *bodyGen) next() (intakeBody, error) {
	gp := workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4}
	ap := workload.AppParams{Parallelism: 24, CCR: 1, Beta: 0.5}
	var sc *workload.Scenario
	var err error
	var class string
	switch u := g.r.Float64(); {
	case u < 0.4:
		class = "random"
		sc, err = workload.RandomScenario(workload.RandomParams{Jobs: 60, CCR: 2, OutDegree: 0.3, Beta: 0.5}, gp, g.r)
	case u < 0.6:
		class = "blast"
		sc, err = workload.BlastScenario(ap, gp, g.r)
	case u < 0.8:
		class = "wien2k"
		sc, err = workload.Wien2kScenario(ap, gp, g.r)
	default:
		class = "data"
		sc = workload.DataScenario(workload.DataParams{
			Searches: 4 + g.r.Intn(5),
			DBSize:   g.r.Uniform(150, 250),
			HitSize:  g.r.Uniform(4, 12),
			LinkBW:   g.r.Uniform(3, 5),
		})
	}
	if err != nil {
		return intakeBody{}, err
	}
	g.n++
	body, err := wire.EncodeSubmission(&wire.Submission{
		Name:   fmt.Sprintf("intake-%s-%d", class, g.n),
		Policy: "aheft",
		Graph:  sc.Graph, Comp: sc.Table, Pool: sc.Pool, Files: sc.Files,
	})
	return intakeBody{class: class, body: body}, err
}

func (g *bodyGen) take(n int) ([]intakeBody, error) {
	out := make([]intakeBody, n)
	for i := range out {
		b, err := g.next()
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// openResult is what one open-loop phase observed.
type openResult struct {
	t0       time.Time // the schedule's time origin
	samples  []sample
	makespan []float64 // daemon makespan per body (from the done event)
	ids      []string  // workflow id the daemon gave each body
	shards   []int     // and the shard it routed it to
	acceptMs []stamped
	refused  int
}

// openPhase submits bodies at rate from clients issuing goroutines, each
// on its own connection: request i is due at i/rate and goes to
// goroutine i mod clients, which POSTs it and follows its event stream
// to the terminal event before taking its next request. rate <= 0 makes
// every request due at once: each goroutine issues back to back.
func openPhase(base string, bodies []intakeBody, rate float64, abortLate time.Duration) *openResult {
	runtime.GC() // the generator's own garbage is collected before, not during, the phase
	n := len(bodies)
	res := &openResult{
		samples: make([]sample, n), makespan: make([]float64, n), ids: make([]string, n), shards: make([]int, n),
		t0: time.Now().Add(20 * time.Millisecond),
	}
	c := wallClock{t0: res.t0}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		var idx []int
		var dues []time.Duration
		for i := w; i < n; i += clients {
			idx = append(idx, i)
			due := time.Duration(0)
			if rate > 0 {
				due = time.Duration(float64(i) / rate * float64(time.Second))
			}
			dues = append(dues, due)
		}
		hc := &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer hc.CloseIdleConnections()
			var accept []stamped
			refused := 0
			ss := openLoop(c, dues, abortLate, func(k int) bool {
				i := idx[k]
				t0 := time.Now()
				resp, err := hc.Post(base+"/v1/workflows", "application/json", bytes.NewReader(bodies[i].body))
				if err != nil {
					return false
				}
				var sub wire.Submitted
				err = json.NewDecoder(resp.Body).Decode(&sub)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					refused++
					return false
				}
				if resp.StatusCode != http.StatusAccepted || err != nil {
					return false
				}
				now := time.Now()
				accept = append(accept, stamped{now, ms(now.Sub(t0))})
				res.ids[i], res.shards[i] = sub.ID, sub.Shard
				mk, ok := followDone(hc, base, sub.ID)
				res.makespan[i] = mk
				return ok
			})
			mu.Lock()
			defer mu.Unlock()
			for k, s := range ss {
				res.samples[idx[k]] = s
			}
			res.acceptMs = append(res.acceptMs, accept...)
			res.refused += refused
		}()
	}
	wg.Wait()
	return res
}

// followDone reads a workflow's SSE stream to its terminal event and
// returns the makespan the "done" event carries.
func followDone(hc *http.Client, base, id string) (float64, bool) {
	resp, err := hc.Get(base + "/v1/workflows/" + id + "/events")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	terminal := ""
	for sc.Scan() {
		line := sc.Bytes()
		if kind, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			terminal = ""
			if k := string(kind); k == "done" || k == "failed" {
				terminal = k
			}
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok || terminal == "" {
			continue
		}
		var ev wire.Event
		if err := json.Unmarshal(data, &ev); err != nil || terminal == "failed" {
			return 0, false
		}
		io.Copy(io.Discard, resp.Body)
		return ev.Makespan, true
	}
	return 0, false
}

// planBody plans a submission body in-process exactly as the daemon's
// analytic path does: decode and validate, bind the file catalog, run
// the named policy through planner.RunPolicy.
func planBody(body []byte, policyName string) (float64, error) {
	sub, err := wire.DecodeSubmission(body, wire.DefaultLimits)
	if err != nil {
		return 0, err
	}
	pol, err := policy.Get(policyName)
	if err != nil {
		return 0, err
	}
	opts := submissionOpts(sub)
	if sub.Files != nil {
		if opts.Data, err = datamodel.NewModel(sub.Files, sub.Pool, sub.Graph, 0); err != nil {
			return 0, err
		}
	}
	res, err := planner.RunPolicy(context.Background(), sub.Graph, cost.Exact(sub.Comp), sub.Pool, pol, opts)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// parallel runs f(0..n-1) on clients goroutines and returns the first
// error.
func parallel(n int, f func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += clients {
				if err := f(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// intake runs the open-loop workload: a fixed-rate phase of -seconds,
// then a capacity phase of back-to-back requests. A traced run replaces
// the capacity phase with the rate ramp. Every makespan the daemon
// reported is then checked bit for bit against an in-process
// planner.RunPolicy on the same body.
func (r *run) intake() error {
	gen := &bodyGen{r: rng.New(r.seed*1_000_003 + 0x1a7a4e)}
	fixed, err := gen.take(int(intakeRate * float64(r.seconds)))
	if err != nil {
		return err
	}
	if !r.trace {
		if err := r.timeSetup(); err != nil {
			return err
		}
	}
	d, err := r.spawn()
	if err != nil {
		return err
	}
	defer d.stop()
	m0, err := d.metrics()
	if err != nil {
		return err
	}
	w, err := openWindow(d.pid())
	if err != nil {
		return err
	}
	mon := startStealMonitor()
	res := openPhase(d.base, fixed, intakeRate, 0)
	quiet := mon.finish()
	r.noteQuiet("fixed phase", quiet)
	daemonMs, genMs, err := w.close()
	if err != nil {
		return err
	}
	// Memory is read before any phase whose length depends on the
	// daemon's speed.
	rss, err := procHWMmb(d.pid())
	if err != nil {
		return err
	}
	m1, err := d.metrics()
	if err != nil {
		return err
	}
	var lat []stamped
	late := make([]float64, 0, len(fixed))
	nFail := 0
	for _, s := range res.samples {
		lat = append(lat, stamped{res.t0.Add(s.Done), s.LatencyMs()})
		late = append(late, s.LateMs())
		if s.Failed {
			nFail++
		}
	}
	r.phase("intake-fixed", len(fixed), len(fixed)-nFail, nFail)
	pass, _, why := stepVerdict(res.samples, rampLimitMs, rampGrowMs)
	r.note("fixed rate %.0f wf/s: pass=%v %s", intakeRate, pass, why)

	checked := []intakeBody{}
	mks := []float64{}
	record := func(bodies []intakeBody, o *openResult) {
		for i, s := range o.samples {
			if !s.Skipped && !s.Failed {
				checked = append(checked, bodies[i])
				mks = append(mks, o.makespan[i])
			}
		}
	}
	record(fixed, res)

	capacity, maxRate := 0.0, 0.0
	if r.trace {
		if maxRate, err = r.ramp(d, gen, pass, record); err != nil {
			return err
		}
	} else {
		sat, err := gen.take(saturatedPerSecond * r.seconds)
		if err != nil {
			return err
		}
		time.Sleep(300 * time.Millisecond)
		mon := startStealMonitor()
		o := openPhase(d.base, sat, 0, 0)
		satQuiet := mon.finish()
		r.noteQuiet("capacity phase", satQuiet)
		var service []stamped
		failed := 0
		for _, s := range o.samples {
			at := o.t0.Add(s.Done)
			if s.Failed {
				failed++
				service = append(service, stamped{at, missMs})
				continue
			}
			service = append(service, stamped{at, ms(s.Done - s.Sent)})
		}
		r.phase("intake-capacity", len(sat), len(sat)-failed, failed)
		record(sat, o)
		capacity = clients * 1000 / quantile(values(satQuiet.quiet(service)), 0.5)
	}
	if err := r.finalGates(d); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	if !r.trace {
		if err := r.timeSetup(); err != nil {
			return err
		}
	}

	want := make([]float64, len(checked))
	if err := parallel(len(checked), func(i int) error {
		var err error
		want[i], err = planBody(checked[i].body, "aheft")
		return err
	}); err != nil {
		return fmt.Errorf("in-process plan: %w", err)
	}
	for i := range want {
		if want[i] != mks[i] {
			r.gate("intake body %d (%s): daemon makespan %v != planner.RunPolicy %v", i, checked[i].class, mks[i], want[i])
		}
	}
	r.note("%d intake makespans checked against planner.RunPolicy", len(checked))
	// AHEFT ÷ HEFT on the fixed phase's inputs.
	heft := make([]float64, len(fixed))
	if err := parallel(len(fixed), func(i int) error {
		var err error
		heft[i], err = planBody(fixed[i].body, "heft")
		return err
	}); err != nil {
		return fmt.Errorf("in-process HEFT: %w", err)
	}
	sumA, sumH := 0.0, 0.0
	for i, s := range res.samples {
		if !s.Failed {
			sumA += res.makespan[i]
			sumH += heft[i]
		}
	}

	completed := len(fixed) - nFail
	if !r.trace {
		r.set("setup_s", quantile(r.setupS, 0.5), "s")
		r.timing("submit_ms", quiet.quiet(lat))
		r.timing("ack_ms", quiet.quiet(res.acceptMs))
		r.set("wf_per_s", capacity, "wf/s")
		r.set("daemon_cpu_ms_per_wf", daemonMs/float64(completed), "ms")
		r.set("daemon_rss_mb", rss, "MB")
		r.set("makespan_ratio", sumA/sumH, "ratio")
		return nil
	}
	return r.intakeLayers(fixed, res, measured{
		workflows: completed, daemonMs: daemonMs, genMs: genMs,
		submissions: len(fixed) - res.refused, refused: res.refused,
		acceptMs: values(res.acceptMs), lateMs: late, before: m0, after: m1, maxRate: maxRate,
		submitAll: values(lat), ackAll: values(res.acceptMs),
	})
}

// ramp raises the open-loop rate from the fixed rate by doubling until a
// step fails its limits, then bisects rampBisections times between the
// last passing and the first failing rate. It returns the highest
// passing rate: the most the daemon sustains with the step's tail (by
// the tailQuantile rule) under rampLimitMs and no growing backlog.
func (r *run) ramp(d *daemon, gen *bodyGen, fixedPass bool, record func([]intakeBody, *openResult)) (float64, error) {
	step := func(rate float64) (bool, error) {
		bodies, err := gen.take(int(rate * rampStep.Seconds()))
		if err != nil {
			return false, err
		}
		time.Sleep(300 * time.Millisecond) // let the last step's tail drain
		o := openPhase(d.base, bodies, rate, rampAbortLate)
		pass, tail, why := stepVerdict(o.samples, rampLimitMs, rampGrowMs)
		sent, failed := 0, 0
		for _, s := range o.samples {
			if !s.Skipped {
				sent++
			}
			if s.Failed {
				failed++
			}
		}
		r.phase(fmt.Sprintf("ramp-%.0f", rate), sent, sent-failed, failed)
		r.note("ramp %.1f wf/s: pass=%v tail p%g=%.2fms n=%d %s", rate, pass, tail.TailQ*100, tail.Tail, tail.N, why)
		record(bodies, o)
		return pass, nil
	}
	lo, hi := 0.0, intakeRate
	if fixedPass {
		lo = intakeRate
		for rate := 2 * intakeRate; ; rate *= 2 {
			if rate > rampCap {
				return lo, nil
			}
			ok, err := step(rate)
			if err != nil {
				return 0, err
			}
			if !ok {
				hi = rate
				break
			}
			lo = rate
		}
	}
	for i := 0; i < rampBisections; i++ {
		mid := (lo + hi) / 2
		ok, err := step(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
