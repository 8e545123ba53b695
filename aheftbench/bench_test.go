package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, // 10 beyond p99.9
		{9999, 0.99},   // 9 beyond p99.9: step down
		{1000, 0.99},   // exactly 10 beyond p99
		{999, 0.95},
		{200, 0.95},
		{199, 0.90},
		{100, 0.90},
		{99, 0.50},
		{5, 0.50},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if q := tailQuantile(tc.n); q > 0.5 && beyond(tc.n, q) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", tc.n, q*100, beyond(tc.n, q))
		}
	}
}

func TestSummarizeUsesNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	got := summarize(xs)
	if got.N != 1000 || got.P50 != 500 || got.TailQ != 0.99 || got.Tail != 990 {
		t.Fatalf("summarize = %+v, want N=1000 P50=500 p99=990", got)
	}
	if xs[0] != 1000 {
		t.Fatal("summarize reordered its input")
	}
}

// fakeClock advances only when the generator sleeps or a request is
// served.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	c := &fakeClock{}
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond}
	serve := []time.Duration{time.Millisecond, 35 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	ss := openLoop(c, dues, 0, func(i int) bool {
		c.now += serve[i]
		return true
	})
	// Request 1 stalls until 45 ms; 2 and 3 are sent late, at 45 and
	// 46 ms, and are charged from their due times.
	want := []float64{1, 35, 26, 17, 8}
	for i, s := range ss {
		if got := s.LatencyMs(); math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("request %d latency = %v ms, want %v", i, got, want[i])
		}
	}
	if late := ss[2].LateMs(); late != 25 {
		t.Errorf("request 2 lateness = %v ms, want 25", late)
	}
	if late := ss[4].LateMs(); late != 7 {
		t.Errorf("request 4 lateness = %v ms, want 7", late)
	}
}

func TestOpenLoopSkipsOnceFarBehind(t *testing.T) {
	c := &fakeClock{}
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	ss := openLoop(c, dues, 100*time.Millisecond, func(i int) bool {
		c.now += 200 * time.Millisecond
		return true
	})
	if ss[0].Skipped || !ss[1].Skipped || !ss[3].Skipped {
		t.Fatalf("want request 0 sent and the rest skipped, got %+v", ss)
	}
	if pass, _, _ := stepVerdict(ss, 50, 5); pass {
		t.Fatal("a step with skipped requests passed")
	}
}

func TestFailureIsAMiss(t *testing.T) {
	s := sample{Due: 0, Sent: 0, Done: time.Millisecond, Failed: true}
	if got := s.LatencyMs(); got <= rampLimitMs || got != missMs {
		t.Fatalf("failed request latency = %v, want the miss value %v above the %v ms limit", got, missMs, rampLimitMs)
	}
	// One failure in a fast step fails it; the same step without it
	// passes.
	ss := make([]sample, 400)
	for i := range ss {
		d := time.Duration(i) * time.Millisecond
		ss[i] = sample{Due: d, Sent: d, Done: d + 2*time.Millisecond}
	}
	if pass, _, why := stepVerdict(ss, 50, 5); !pass {
		t.Fatalf("clean step failed: %s", why)
	}
	ss[200].Failed = true
	if pass, _, _ := stepVerdict(ss, 50, 5); pass {
		t.Fatal("a step with a failed request passed")
	}
}

func TestStepVerdictSeesGrowingLateness(t *testing.T) {
	ss := make([]sample, 400)
	for i := range ss {
		d := time.Duration(i) * time.Millisecond
		late := time.Duration(i/10) * time.Millisecond / 2 // grows to 20 ms
		ss[i] = sample{Due: d, Sent: d + late, Done: d + late + time.Millisecond}
	}
	pass, tail, why := stepVerdict(ss, 50, 5)
	if pass || why != "lateness growing" {
		t.Fatalf("verdict = %v (%s), tail %+v; want lateness growing", pass, why, tail)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and a ')' — fields count from the
	// last ')'. utime=250 stime=50 ticks at USER_HZ 100 → 3000 ms.
	stat := "4242 (aheftd (x) y) S 1 4242 4242 0 -1 4194560 1200 0 0 0 250 50 0 0 20 0 9 0 12345 1000000 500 18446744073709551615\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got != 3000 {
		t.Fatalf("parseStatCPU = %v ms, want 3000", got)
	}
	if _, err := parseStatCPU([]byte("12 (short) S 1 2")); err == nil {
		t.Fatal("truncated stat parsed")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\taheftd\nVmPeak:\t  812340 kB\nVmHWM:\t   58044 kB\nVmRSS:\t   51200 kB\n"
	got, err := parseStatusKB([]byte(status), "VmHWM")
	if err != nil || got != 58044 {
		t.Fatalf("VmHWM = %v, %v; want 58044", got, err)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Fatal("missing field parsed")
	}
}

func TestProcReadsThisProcess(t *testing.T) {
	if _, err := procCPUms(0); err != nil {
		t.Fatal(err)
	}
	if mb, err := procHWMmb(0); err != nil || mb <= 0 {
		t.Fatalf("VmHWM = %v MB, %v", mb, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]; [1, 2, 3, 4, 5] gives [1.5, 3.0, 4.5] and
	// [1, 4] gives [0.25, 2.5, 4.75].
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75}, // extrapolates, as Python does
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestWindowedTailIgnoresOneNoisyWindow(t *testing.T) {
	t0 := time.Unix(0, 0)
	stream := func(n, every, stall int) []stamped {
		xs := make([]stamped, n)
		for i := range xs {
			ms := 1.0
			if i%every < stall {
				ms = 40
			}
			xs[i] = stamped{At: t0.Add(time.Duration(i) * time.Millisecond), Ms: ms}
		}
		return xs
	}
	// One burst of 50 slow samples in 12 windows of 200: not the figure.
	xs := stream(12*tailWindow, 1<<30, 0)
	for i := tailWindow; i < tailWindow+50; i++ {
		xs[i].Ms = 40
	}
	if tail, n := windowedTail(xs); tail != 1 || n != tailWindow {
		t.Fatalf("windowedTail = %v (n=%d), want 1 (n=%d)", tail, n, tailWindow)
	}
	// A stall in every window is the program's, and shows.
	if tail, _ := windowedTail(stream(12*tailWindow, tailWindow, 40)); tail != 40 {
		t.Fatalf("windowedTail = %v with a stall in every window, want 40", tail)
	}
	// Too few samples for windows: the pooled percentile.
	if tail, n := windowedTail(stream(500, 100, 11)); tail != 40 || n != 500 {
		t.Fatalf("windowedTail of 500 samples = %v (n=%d), want the pooled p90 of 40", tail, n)
	}
	if beyond(tailWindow, tailQ) < minBeyond || beyond(100, tailQ) < minBeyond {
		t.Fatalf("p%g has fewer than %d samples beyond it in a window or a pooled 100", tailQ*100, minBeyond)
	}
}

func TestQuietIntervals(t *testing.T) {
	// Enough quiet intervals: exactly those are kept.
	got := quietIntervals([]float64{0, 0.01, 0.2, 0.03, 0.5})
	want := []bool{true, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quietIntervals = %v, want %v", got, want)
		}
	}
	// Too few: the quieter half.
	got = quietIntervals([]float64{0.2, 0.1, 0.3, 0.05})
	want = []bool{false, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quietIntervals = %v, want %v", got, want)
		}
	}
}

func TestQuietnessFiltersAndRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	sec := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	// Three one-second intervals; the middle one was stolen from.
	q := quietness{at: []time.Time{sec(0), sec(1), sec(2), sec(3)}, keep: []bool{true, false, true}, shares: []float64{0, 0.4, 0.01}}
	xs := []stamped{{sec(0.5), 1}, {sec(1.5), 9}, {sec(2.5), 2}, {sec(3.5), 3}}
	got := q.quiet(xs)
	if len(got) != 2 || got[0].Ms != 1 || got[1].Ms != 2 {
		t.Fatalf("quiet = %v, want the samples at 0.5 s and 2.5 s", got)
	}
	var done []time.Time
	for i := 0; i < 30; i++ {
		done = append(done, sec(float64(i)/10))
	}
	// 10 completions in each quiet second: 10/s; the stolen second and
	// anything outside [from, to) do not count.
	if r := q.rate(done, sec(0), sec(3)); r != 10 {
		t.Fatalf("rate = %v, want 10", r)
	}
	if r := q.rate(done, sec(0.5), sec(3)); r != 10 {
		t.Fatalf("rate from 0.5 s = %v, want 10", r)
	}
	kept, all, steal := q.summary()
	if kept != 2 || all != 3 || steal != 13.7 {
		t.Fatalf("summary = %d of %d, mean steal %v%%; want 2 of 3, 13.7%%", kept, all, steal)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "report", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "wire.DecodeReport", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "feedback.Tracker.Apply", Start: 2 * ms, End: 6 * ms}, // overlaps 2
		{ID: 4, Parent: 1, Name: "durable.Shard.Append", Start: 8 * ms, End: 12 * ms},  // runs past parent
		{ID: 5, Parent: 3, Name: "kernel.Reschedule", Start: 3 * ms, End: 4 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 3 * ms, 2: 2 * ms, 3: 3 * ms, 4: 4 * ms, 5: ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metrics
// a run prints in step: every per-layer metric with its unit, in order.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	want := layerMetrics()
	if len(doc.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(doc.PerLayer), len(want))
	}
	for i, m := range doc.PerLayer {
		if m.Name != want[i][0] || m.Unit != want[i][1] {
			t.Errorf("per_layer[%d] = %s (%s), benchmark prints %s (%s)", i, m.Name, m.Unit, want[i][0], want[i][1])
		}
	}
	e2e := map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, name := range endToEnd {
		if _, ok := e2e[name[0]]; !ok || e2e[name[0]] != name[1] {
			t.Errorf("end-to-end metric %s (%s) missing from BENCHMARK.json", name[0], name[1])
		}
	}
	if len(e2e) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(e2e), len(endToEnd))
	}
}

// TestRawPairIsTheRecordJSON checks the hand-encoded raw-body record
// against the encoding json.Marshal gives the same record.
func TestRawPairIsTheRecordJSON(t *testing.T) {
	body := []byte(`{"name":"a \"quoted\" wf","jobs":[1,2]}`)
	want, err := json.Marshal(struct {
		ID   string          `json:"id"`
		Body json.RawMessage `json:"body"`
	}{"wf-7", body})
	if err != nil {
		t.Fatal(err)
	}
	if got := rawPair("id", "wf-7", "body", body); string(got) != string(want) {
		t.Errorf("rawPair = %s, want %s", got, want)
	}
}
