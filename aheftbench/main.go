// Command aheftbench is the end-to-end, layer-split benchmark of a
// durable aheftd. It spawns the daemon as a child process (default
// flags plus a fresh -data-dir, so the WAL runs with -wal-sync
// interval), drives one workload against it from this process with at
// most two request-issuing goroutines and connections, checks the
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the same workload runs again to capture
// its inputs, a -trace daemon gives the tracing overhead and the
// daemon's stage latencies, and the inputs are replayed in-process with
// a span around each public call of each layer; the metrics are then
// the per-layer ones and the spans are written to a file.
//
// Workloads: intake (open-loop analytic submissions, then a rate ramp),
// live (closed-loop private-pool enactment through the feedback loop),
// shared (closed-loop 2-tenant rounds on shared grids).
//
//	aheftbench -daemon path/to/aheftd -work dir -workload live -seed 1 -seconds 10 -trace 0
//
// -steady N runs each workload N times with seeds 1..N, each in a fresh
// process, and prints every metric's median, quartiles and spread
// against the bounds in the BENCHMARK.json of the working directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"

	"aheft/internal/buildinfo"
)

// clients is the number of request-issuing goroutines (and
// connections) of every workload: the core count of the reference box,
// fixed so a run does the same work wherever it runs.
const clients = 2

// setupSpawns is how many extra daemons a run spawns, before and again
// after its workload, to time set-up; the median is reported. Most of
// set-up's run-to-run spread is the disk: a durable daemon fsyncs a
// fresh snapshot per shard before it turns ready, and the fsync latency
// of a shared disk drifts, from one second to the next and from one run
// to the next. Fifteen spawns at each end of the run sample that drift
// at two times; on the reference box the median's spread across runs was
// still 0.1 to 0.3 (0.08 for a daemon without -data-dir).
const setupSpawns = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and what it has measured so far.
type run struct {
	daemonBin string
	work      string
	workload  string
	seed      uint64
	seconds   int
	trace     bool

	metrics   map[string]metric
	attempted int
	failed    int
	gateErrs  []string
	notes     []string
	setupS    []float64 // spawn → ready of every daemon this run started
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// gate records a correctness failure; any one fails the run.
func (r *run) gate(format string, args ...any) {
	r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// phase records one phase's request counts in the run metadata.
func (r *run) phase(name string, attempted, succeeded, failed int) {
	r.attempted += attempted
	r.failed += failed
	r.note("phase %s: attempted=%d succeeded=%d failed=%d", name, attempted, succeeded, failed)
}

func main() {
	daemonBin := flag.String("daemon", "", "path to the aheftd binary")
	work := flag.String("work", ".bench_build", "scratch directory for daemon data, spans and logs")
	wl := flag.String("workload", "", "workload: intake | live | shared")
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 10, "run length: the measured window of intake, and the fixed work of live/shared")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run and an in-process replay")
	steady := flag.Int("steady", 0, "steadiness mode: run each workload this many times (seeds 1..N) and print each metric's spread against its bound")
	flag.Parse()

	if *daemonBin == "" {
		fatal("-daemon is required")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal("%v", err)
	}
	if *steady > 0 {
		if err := steadiness(*steady, *daemonBin, *work, *seconds, *traceFlag); err != nil {
			fatal("%v", err)
		}
		return
	}
	r := &run{
		daemonBin: *daemonBin, work: *work, workload: *wl, seed: *seed,
		seconds: *seconds, trace: *traceFlag == 1, metrics: map[string]metric{},
	}
	if r.seconds < 1 {
		fatal("-seconds must be >= 1")
	}
	var err error
	ctx := context.Background()
	switch *wl {
	case "intake":
		err = r.intake()
	case "live", "shared":
		err = r.closed(ctx, *wl == "shared")
	default:
		fatal("unknown -workload %q (want intake, live or shared)", *wl)
	}
	if err != nil {
		fatal("%s: %v", *wl, err)
	}
	if !r.trace {
		for _, m := range endToEnd {
			if _, ok := r.metrics[m[0]]; !ok {
				fatal("%s: end-to-end metric %s not measured", *wl, m[0])
			}
		}
	}
	r.print()
	if len(r.gateErrs) > 0 {
		os.Exit(1)
	}
}

// print writes the run metadata, a metric table and the result line.
func (r *run) print() {
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%v\n", r.workload, r.seed, r.seconds, r.trace)
	fmt.Printf("# NumCPU=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), buildinfo.String())
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, e := range r.gateErrs {
		fmt.Println("# GATE FAILED: " + e)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	res := result{Correct: len(r.gateErrs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Println(string(b))
}

// spawn starts the daemon serving the workload and records its set-up
// time.
func (r *run) spawn() (*daemon, error) {
	d, err := startDaemon(r.daemonBin, r.work, false)
	if err == nil {
		r.setupS = append(r.setupS, d.setup.Seconds())
	}
	return d, err
}

// timeSetup spawns and stops setupSpawns more daemons to time set-up.
// A run does this before and after its workload, so the median it
// reports samples set-up at both ends of the run. Pending write-back is
// flushed first, so the spawns' fsyncs do not wait out the workload's
// journal.
func (r *run) timeSetup() error {
	syscall.Sync()
	for i := 0; i < setupSpawns; i++ {
		d, err := r.spawn()
		if err != nil {
			return err
		}
		if err := d.stop(); err != nil {
			return err
		}
	}
	return nil
}

// window brackets a measured phase with the daemon's CPU time and the
// generator's own.
type window struct {
	pid                 int
	daemonCPU0, genCPU0 float64
}

func openWindow(pid int) (*window, error) {
	w := &window{pid: pid}
	var err error
	if w.daemonCPU0, err = procCPUms(pid); err != nil {
		return nil, err
	}
	if w.genCPU0, err = procCPUms(0); err != nil {
		return nil, err
	}
	return w, nil
}

// close returns the daemon's and the generator's CPU milliseconds over
// the window.
func (w *window) close() (daemonMs, genMs float64, err error) {
	d, err := procCPUms(w.pid)
	if err != nil {
		return 0, 0, err
	}
	g, err := procCPUms(0)
	if err != nil {
		return 0, 0, err
	}
	return d - w.daemonCPU0, g - w.genCPU0, nil
}

// finalGates checks the daemon's closing /metrics: no dropped events, no
// failed workflows, no WAL errors, no reservation left on any grid.
func (r *run) finalGates(d *daemon) error {
	m, err := d.metrics()
	if err != nil {
		return err
	}
	if m.EventsDropped != 0 {
		r.gate("/metrics events_dropped = %d", m.EventsDropped)
	}
	if m.Failed != 0 {
		r.gate("/metrics failed = %d", m.Failed)
	}
	if m.WALErrors != 0 {
		r.gate("/metrics wal_errors = %d", m.WALErrors)
	}
	if m.Reservations != 0 || m.TransferReservations != 0 {
		r.gate("/metrics reservations = %d, transfer_reservations = %d", m.Reservations, m.TransferReservations)
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aheftbench: "+format+"\n", args...)
	os.Exit(2)
}
