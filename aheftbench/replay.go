package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"aheft/internal/cost"
	datamodel "aheft/internal/data"
	"aheft/internal/durable"
	"aheft/internal/feedback"
	"aheft/internal/grid"
	"aheft/internal/history"
	"aheft/internal/kernel"
	"aheft/internal/occupancy"
	"aheft/internal/planner"
	"aheft/internal/policy"
	"aheft/internal/wire"
)

// replay re-runs a workload's captured inputs in-process, in the order
// the daemon received them, with a span around each public call of each
// layer: for a submission wire.DecodeSubmission, data.NewModel, then
// planner.RunPolicyObserved (analytic) or feedback.New (live); for a
// report batch wire.DecodeReport, feedback.Tracker.Apply, then the
// state record the daemon journals (feedback.Tracker.ExportState and
// durable.Shard.Append). The journal is a real durable.Shard with the
// daemon's default fsync policy, and its records mirror the daemon's
// field for field (see the record types below), so the run can gate on
// the two journals' bytes per workflow agreeing.
type replay struct {
	tr     *tracer
	wal    *durable.Shard
	walDir string

	workflows int
	reports   int
	// Planner decisions of analytic runs, and of live report batches
	// (plus the contention re-evaluations a shared grid triggers).
	runDecisions, runAdopted     int
	applyDecisions, applyAdopted int
	rankMs, placeMs              []float64
	subKB                        []float64
	decodeAllocs                 []float64
	staticMs                     []float64

	gcFrac, allocKBPerWf float64
}

func newReplay(work string) (*replay, error) {
	dir, err := os.MkdirTemp(work, "replay-wal-")
	if err != nil {
		return nil, err
	}
	pol, err := durable.ParseSyncPolicy("interval")
	if err != nil {
		return nil, err
	}
	wal, _, err := durable.Open(dir, pol, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &replay{tr: newTracer(), wal: wal, walDir: dir}, nil
}

func (rp *replay) close() {
	rp.wal.Close()
	os.RemoveAll(rp.walDir)
}

// append journals one record inside a durable.Shard.Append span.
func (rp *replay) append(id string, parent int, kind string, payload any) error {
	var err error
	rp.tr.call("durable.Shard.Append", id, parent, func() { _, err = rp.wal.Append(kind, payload) })
	return err
}

// runtimeCPU samples the runtime's GC and total busy CPU and the bytes
// allocated so far.
type runtimeCPU struct{ gc, busy, alloc float64 }

func readRuntime() runtimeCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeCPU{gc: f(0), busy: f(1) - f(2), alloc: f(3)}
}

func (rp *replay) runtimeSince(r0 runtimeCPU) {
	runtime.GC() // flush the GC CPU accounting of the replay's garbage
	r1 := readRuntime()
	if b := r1.busy - r0.busy; b > 0 {
		rp.gcFrac = (r1.gc - r0.gc) / b
	}
	if rp.workflows > 0 {
		rp.allocKBPerWf = (r1.alloc - r0.alloc) / 1024 / float64(rp.workflows)
	}
}

// submissionOpts maps a submission's options to the policy options the
// daemon plans it with.
func submissionOpts(sub *wire.Submission) policy.Options {
	return policy.Options{
		TieWindow:      sub.Options.TieWindow,
		NoInsertion:    sub.Options.NoInsertion,
		RestartRunning: sub.Options.RestartRunning,
		Eps:            sub.Options.Eps,
	}
}

// The journal records the daemon writes (internal/server's walAdmission,
// walState and walTerminal), mirrored field for field.

type admissionRecord struct {
	ID     string  `json:"id"`
	Tenant string  `json:"tenant,omitempty"`
	Class  string  `json:"class,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

type stateRecord struct {
	ID          string                  `json:"id"`
	Tenant      string                  `json:"tenant"`
	AckedGen    int                     `json:"acked_gen"`
	Reports     int                     `json:"reports"`
	PlanTrigger string                  `json:"plan_trigger"`
	FastPath    bool                    `json:"fast_path,omitempty"`
	Upgraded    bool                    `json:"upgraded,omitempty"`
	State       *feedback.TrackerState  `json:"state"`
	Deltas      []feedback.HistoryDelta `json:"deltas,omitempty"`
	Events      []wire.Event            `json:"events,omitempty"`
}

type terminalRecord struct {
	ID     string       `json:"id"`
	Status wire.Status  `json:"status"`
	Plan   *wire.Plan   `json:"plan,omitempty"`
	Events []wire.Event `json:"events,omitempty"`
}

// rawPair hand-encodes {key: name, bodyKey: body} with the raw body
// verbatim, as the daemon encodes its submission and grid records.
func rawPair(key, name, bodyKey string, body []byte) json.RawMessage {
	buf := make([]byte, 0, len(key)+len(name)+len(bodyKey)+len(body)+16)
	buf = append(buf, '{', '"')
	buf = append(buf, key...)
	buf = append(buf, '"', ':')
	buf = wire.AppendJSONString(buf, name)
	buf = append(buf, ',', '"')
	buf = append(buf, bodyKey...)
	buf = append(buf, '"', ':')
	buf = append(buf, body...)
	return append(buf, '}')
}

// journalSubmission writes the daemon's pair of records for an accepted
// submission: the raw body, then its admission credentials.
func (rp *replay) journalSubmission(id string, parent int, body []byte, sub *wire.Submission) error {
	if err := rp.append(id, parent, wire.WALSubmission, rawPair("id", id, "body", body)); err != nil {
		return err
	}
	return rp.append(id, parent, wire.WALAdmission, admissionRecord{
		ID: id, Tenant: tenantOf(sub), Class: sub.Options.Class, Weight: sub.Options.Weight,
	})
}

func tenantOf(sub *wire.Submission) string {
	if sub.Tenant == "" {
		return "default"
	}
	return sub.Tenant
}

// wireDecision is a decision as the daemon puts it in events and
// statuses, with the replan's path and timings.
func wireDecision(d planner.Decision) wire.Decision {
	wd := feedback.DecisionToWire(d)
	wd.Path, wd.Cone, wd.Fallback = d.Path, d.ConeSize, d.FallbackReason
	wd.ElapsedMs, wd.RankMs, wd.PlaceMs = d.ElapsedMs, d.RankMs, d.PlaceMs
	return wd
}

// decisionEvent is the event the daemon logs for one decision.
func decisionEvent(seq int, id string, d planner.Decision) wire.Event {
	wd := wireDecision(d)
	return wire.Event{Seq: seq, Kind: "decision", Workflow: id, Time: d.Clock, Decision: &wd, Trigger: wd.Trigger, Arrived: wd.Arrived}
}

// resultStatus fills a terminal status's result fields from res.
func resultStatus(st *wire.Status, res *planner.Result) {
	st.Makespan = res.Makespan
	st.InitialMakespan = res.InitialMakespan
	st.Improvement = res.Improvement()
	st.Adoptions = res.Adoptions()
	st.Decisions = make([]wire.Decision, len(res.Decisions))
	for i, d := range res.Decisions {
		st.Decisions[i] = wireDecision(d)
	}
}

// intake replays analytic submissions in arrival order, under the ids
// and shards the daemon gave them.
func (rp *replay) intake(bodies []intakeBody, ids []string, shards []int) error {
	var err error
	ctx := context.Background()
	pol := policy.MustGet("aheft")
	r0 := readRuntime()
	for i, b := range bodies {
		id := ids[i]
		root := rp.tr.start("submit", id, 0)
		t0 := time.Now()
		var sub *wire.Submission
		rp.tr.call("wire.DecodeSubmission", id, root, func() { sub, err = wire.DecodeSubmission(b.body, wire.DefaultLimits) })
		if err != nil {
			return err
		}
		opts := submissionOpts(sub)
		if sub.Files != nil {
			rp.tr.call("data.NewModel", id, root, func() { opts.Data, err = datamodel.NewModel(sub.Files, sub.Pool, sub.Graph, 0) })
			if err != nil {
				return err
			}
		}
		if err := rp.journalSubmission(id, root, b.body, sub); err != nil {
			return err
		}
		started := time.Now()
		events := []wire.Event{{Seq: 0, Kind: "submitted", Workflow: id}, {Seq: 1, Kind: "started", Workflow: id}}
		var res *planner.Result
		rp.tr.call("planner.RunPolicyObserved", id, root, func() {
			res, err = planner.RunPolicyObserved(ctx, sub.Graph, cost.Exact(sub.Comp), sub.Pool, pol, opts, func(d planner.Decision) {
				rp.runDecisions++
				if d.Adopted {
					rp.runAdopted++
				}
				events = append(events, decisionEvent(len(events), id, d))
			})
		})
		if err != nil {
			return err
		}
		events = append(events, wire.Event{Seq: len(events), Kind: "done", Workflow: id, Time: res.Makespan, Makespan: res.Makespan})
		st := wire.Status{
			ID: id, Name: sub.Name, State: "done", Policy: pol.Name(), Shard: shards[i],
			Jobs: sub.Graph.Len(), Resources: sub.Pool.Size(), Events: len(events),
			QueueMs: ms(started.Sub(t0)), ComputeMs: ms(time.Since(started)),
		}
		resultStatus(&st, res)
		if err := rp.append(id, root, wire.WALTerminal, terminalRecord{ID: id, Status: st, Events: events}); err != nil {
			return err
		}
		rp.tr.end(root)
		rp.workflows++
	}
	rp.runtimeSince(r0)

	for i, b := range bodies {
		if err := rp.submissionCosts(i, b.body, nil); err != nil {
			return err
		}
	}
	return nil
}

// submissionCosts measures, outside the span tree so they count in no
// layer's self time, the body size, the allocations of one decode (every
// tenth body) and the bare static plan: the kernel's share of planning
// the submission. pool overrides the body's own (a shared grid's).
func (rp *replay) submissionCosts(i int, body []byte, pool *grid.Pool) error {
	sub, err := wire.DecodeSubmission(body, wire.DefaultLimits)
	if err != nil {
		return err
	}
	if pool == nil {
		pool = sub.Pool
	}
	rp.subKB = append(rp.subKB, float64(len(body))/1024)
	if i%10 == 0 {
		rp.decodeAllocs = append(rp.decodeAllocs, allocsOf(func() { _, _ = wire.DecodeSubmission(body, wire.DefaultLimits) }))
	}
	opts := submissionOpts(sub)
	k := kernel.New(sub.Graph, cost.Exact(sub.Comp))
	if sub.Files != nil {
		if opts.Data, err = datamodel.NewModel(sub.Files, pool, sub.Graph, 0); err != nil {
			return err
		}
		k.SetData(opts.Data)
	}
	t0 := time.Now()
	if _, err := k.Static(pool.Initial(), opts.Kernel()); err != nil {
		return err
	}
	rp.staticMs = append(rp.staticMs, ms(time.Since(t0)))
	return nil
}

// allocsOf counts the heap allocations one call of f makes.
func allocsOf(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// liveWF is one replayed live workflow, with the bookkeeping the
// daemon journals beside its tracker.
type liveWF struct {
	id, tenant, name, grid, policy string
	shard, jobs, resources         int
	tr                             *feedback.Tracker
	reports                        int
	events                         []wire.Event
	// plan is the plan document of the last adopted generation, and
	// ackedGen the generation its enactor last heard of.
	plan     *wire.Plan
	ackedGen int
	t0       time.Time
	queueMs  float64
}

func (rp *replay) journalState(wf *liveWF, parent int, deltas []feedback.HistoryDelta) error {
	var st *feedback.TrackerState
	rp.tr.call("feedback.Tracker.ExportState", wf.id, parent, func() { st = wf.tr.ExportState() })
	return rp.append(wf.id, parent, wire.WALState, stateRecord{
		ID: wf.id, Tenant: wf.tenant, AckedGen: wf.ackedGen, Reports: wf.reports, PlanTrigger: wf.plan.Trigger,
		State: st, Deltas: deltas, Events: wf.events,
	})
}

// adoptPlan records the tracker's current plan as the workflow's plan
// document, as the daemon does on every adoption.
func (wf *liveWF) adoptPlan(trigger string) {
	as := wf.tr.Plan().Assignments()
	sort.Slice(as, func(i, j int) bool { return as[i].Job < as[j].Job })
	wf.plan = &wire.Plan{
		Workflow: wf.id, Generation: wf.tr.Generation(), Trigger: trigger,
		Makespan: wf.tr.Plan().Makespan(), Assignments: make([]wire.Assignment, len(as)),
	}
	for i, a := range as {
		wf.plan.Assignments[i] = wire.Assignment{Job: int(a.Job), Resource: int(a.Resource), Start: a.Start, Finish: a.Finish}
	}
}

// noteDecisions folds a batch's decisions into the counters and the event
// log, and adopts the new plan under trigger when one was adopted.
func (rp *replay) noteDecisions(wf *liveWF, out *feedback.Outcome, trigger string) {
	for _, d := range out.Decisions {
		rp.applyDecisions++
		if d.Adopted {
			rp.applyAdopted++
		}
		rp.rankMs = append(rp.rankMs, d.RankMs)
		rp.placeMs = append(rp.placeMs, d.PlaceMs)
		wf.events = append(wf.events, decisionEvent(len(wf.events), wf.id, d))
	}
	if out.Rescheduled {
		wf.adoptPlan(trigger)
		wf.events = append(wf.events, wire.Event{Seq: len(wf.events), Kind: "plan", Workflow: wf.id, Time: wf.tr.Clock(),
			Trigger: trigger, Generation: wf.plan.Generation, Makespan: wf.plan.Makespan})
	}
}

// finish journals the workflow's terminal record.
func (rp *replay) finish(wf *liveWF, parent int) error {
	tr := wf.tr
	wf.events = append(wf.events, wire.Event{Seq: len(wf.events), Kind: "done", Workflow: wf.id, Time: tr.Makespan(), Makespan: tr.Makespan()})
	st := wire.Status{
		ID: wf.id, Name: wf.name, State: "done", Mode: wire.ModeLive, Tenant: wf.tenant, Grid: wf.grid,
		Generation: tr.Generation(), Reports: wf.reports, Policy: wf.policy, Shard: wf.shard,
		Jobs: wf.jobs, Resources: wf.resources, Events: len(wf.events),
		QueueMs: wf.queueMs, ComputeMs: ms(time.Since(wf.t0)),
	}
	resultStatus(&st, &planner.Result{Makespan: tr.Makespan(), InitialMakespan: tr.InitialMakespan(), Decisions: tr.Decisions()})
	return rp.append(wf.id, parent, wire.WALTerminal, terminalRecord{ID: wf.id, Status: st, Plan: wf.plan, Events: wf.events})
}

// closed replays each enactment client's captured submissions and
// report batches in the order the client sent them. Clients use
// disjoint tenants and grids, so replaying them one after the other
// preserves every input each tracker and ledger saw. As in the daemon, a
// tenant's history is kept per shard, and a shared grid's survivors are
// re-evaluated after each batch that finished jobs.
func (rp *replay) closed(caps [][]captured) error {
	r0 := readRuntime()
	for _, list := range caps {
		hist := map[string]*history.Repository{}
		var ledger *occupancy.Ledger
		var gridPool *grid.Pool
		live := map[string]*liveWF{}
		var resident []*liveWF
		for _, cp := range list {
			switch cp.Kind {
			case "grid":
				spec, err := wire.DecodeGridSpec(cp.Body, wire.DefaultLimits)
				if err != nil {
					return err
				}
				gridPool = spec.Pool
				ledger = occupancy.NewLedger(gridPool.Size())
				if err := rp.append(cp.ID, 0, wire.WALGrid, rawPair("name", cp.ID, "spec", cp.Body)); err != nil {
					return err
				}
			case "submit":
				wf, err := rp.replaySubmit(cp, hist, ledger, gridPool)
				if err != nil {
					return err
				}
				live[wf.id] = wf
				resident = append(resident, wf)
			case "report":
				wf := live[cp.ID]
				if wf == nil {
					return fmt.Errorf("replay: report for unknown workflow %s", cp.ID)
				}
				done, err := rp.replayReport(wf, cp, ledger, resident)
				if err != nil {
					return err
				}
				if done {
					delete(live, wf.id)
					kept := resident[:0]
					for _, o := range resident {
						if o != wf {
							kept = append(kept, o)
						}
					}
					resident = kept
				}
			}
		}
	}
	rp.runtimeSince(r0)
	n := 0
	for _, list := range caps {
		var gridPool *grid.Pool
		for _, cp := range list {
			switch cp.Kind {
			case "grid":
				spec, err := wire.DecodeGridSpec(cp.Body, wire.DefaultLimits)
				if err != nil {
					return err
				}
				gridPool = spec.Pool
			case "submit":
				if err := rp.submissionCosts(n, cp.Body, gridPool); err != nil {
					return err
				}
				n++
			}
		}
	}
	return nil
}

func (rp *replay) replaySubmit(cp captured, hist map[string]*history.Repository, ledger *occupancy.Ledger, gridPool *grid.Pool) (*liveWF, error) {
	id := cp.ID
	root := rp.tr.start("submit", id, 0)
	t0 := time.Now()
	var sub *wire.Submission
	var err error
	rp.tr.call("wire.DecodeSubmission", id, root, func() { sub, err = wire.DecodeSubmission(cp.Body, wire.DefaultLimits) })
	if err != nil {
		return nil, err
	}
	pol, err := policy.Get(sub.Policy)
	if err != nil {
		return nil, err
	}
	tenant := tenantOf(sub)
	key := fmt.Sprintf("%d/%s", cp.Shard, tenant)
	if hist[key] == nil {
		hist[key] = history.New(0)
	}
	cfg := feedback.Config{
		Graph: sub.Graph, Prior: cost.Exact(sub.Comp), Pool: sub.Pool, History: hist[key],
		Policy: pol, Opts: submissionOpts(sub), VarianceThreshold: sub.Options.VarianceThreshold,
	}
	if sub.SharedGrid != "" {
		if ledger == nil {
			return nil, fmt.Errorf("replay: %s names grid %s before its registration", id, sub.SharedGrid)
		}
		ledger.BindTenant(id, tenant)
		cfg.Pool = gridPool
		cfg.Occupancy = ledger.View(id)
	}
	if sub.Files != nil {
		rp.tr.call("data.NewModel", id, root, func() { cfg.Opts.Data, err = datamodel.NewModel(sub.Files, cfg.Pool, sub.Graph, 0) })
		if err != nil {
			return nil, err
		}
	}
	if err := rp.journalSubmission(id, root, cp.Body, sub); err != nil {
		return nil, err
	}
	wf := &liveWF{
		id: id, tenant: tenant, name: sub.Name, grid: sub.SharedGrid, policy: pol.Name(),
		shard: cp.Shard, jobs: sub.Graph.Len(), resources: cfg.Pool.Size(), t0: time.Now(),
	}
	wf.queueMs = ms(wf.t0.Sub(t0))
	rp.tr.call("feedback.New", id, root, func() { wf.tr, err = feedback.New(cfg) })
	if err != nil {
		return nil, err
	}
	wf.adoptPlan("initial")
	wf.ackedGen = wf.plan.Generation
	wf.events = []wire.Event{
		{Seq: 0, Kind: "submitted", Workflow: id},
		{Seq: 1, Kind: "started", Workflow: id},
		{Seq: 2, Kind: "plan", Workflow: id, Trigger: "initial", Generation: wf.tr.Generation(), Makespan: wf.tr.Plan().Makespan()},
	}
	if err := rp.journalState(wf, root, nil); err != nil {
		return nil, err
	}
	rp.tr.end(root)
	rp.workflows++
	return wf, nil
}

func (rp *replay) replayReport(wf *liveWF, cp captured, ledger *occupancy.Ledger, resident []*liveWF) (bool, error) {
	root := rp.tr.start("report", wf.id, 0)
	defer rp.tr.end(root)
	var rep *wire.Report
	var err error
	rp.tr.call("wire.DecodeReport", wf.id, root, func() { rep, err = wire.DecodeReport(cp.Body, 0) })
	if err != nil {
		return false, err
	}
	var out *feedback.Outcome
	rp.tr.call("feedback.Tracker.Apply", wf.id, root, func() { out, err = wf.tr.Apply(rep.Events) })
	if err != nil {
		return false, fmt.Errorf("replay %s: %w", wf.id, err)
	}
	rp.reports++
	wf.reports++
	rp.noteDecisions(wf, out, out.Trigger.String())
	wf.ackedGen = wf.tr.Generation()
	if err := rp.journalState(wf, root, out.Recorded); err != nil {
		return false, err
	}
	if out.Done {
		if err := rp.finish(wf, root); err != nil {
			return false, err
		}
		if ledger != nil {
			ledger.Release(wf.id)
		}
	}
	if ledger == nil {
		return out.Done, nil
	}
	released := 0
	for _, ev := range rep.Events[:out.Applied] {
		if ev.Kind == wire.ReportJobFinished {
			released++
		}
	}
	if released == 0 {
		return out.Done, nil
	}
	// Freed capacity is a run-time event for every survivor on the grid.
	for _, o := range resident {
		if o == wf || o.tr.Done() {
			continue
		}
		var oo *feedback.Outcome
		rp.tr.call("feedback.Tracker.Reevaluate", o.id, root, func() { oo = o.tr.Reevaluate(planner.TriggerContention) })
		rp.noteDecisions(o, oo, planner.TriggerContention.String())
		if oo.Rescheduled {
			if err := rp.journalState(o, root, nil); err != nil {
				return false, err
			}
		}
	}
	return out.Done, nil
}
