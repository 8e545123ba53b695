package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a timing's tail may be reported
// at, highest first. A tail is the highest of them with at least
// minBeyond samples strictly beyond it, so a p99 is only claimed from a
// thousand samples or more.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.50}

const minBeyond = 10

// tailQuantile returns the highest ladder percentile that has at least
// minBeyond of n samples beyond it; below 20 samples it falls back to
// the median.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.50
}

// beyond counts the samples of n ranked strictly above the q-quantile's
// nearest rank.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// timing is a latency distribution summarised the way every timing is
// reported: its median, its tail at tailQuantile(N), and the count.
type timing struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64
}

func summarize(xs []float64) timing {
	s := append([]float64(nil), xs...)
	q := tailQuantile(len(s))
	return timing{N: len(s), P50: quantile(s, 0.50), Tail: quantile(s, q), TailQ: q}
}

// quartiles returns the first quartile, median and third quartile with
// the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), which is how the steadiness of a
// metric across runs is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method "exclusive", transcribed.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// missMs is the latency charged to an operation that failed, was
// refused or timed out: the request deadline. It exceeds every latency
// limit the benchmark applies, so a failure always counts as a miss.
const missMs = float64(requestTimeout / time.Millisecond)

// sample is one open-loop request: when it was due, when the generator
// actually sent it, and when its terminal event arrived (all offsets
// from the phase start).
type sample struct {
	Due, Sent, Done time.Duration
	Failed          bool
	// Skipped marks a request the generator never sent because its ramp
	// step had already been judged overloaded.
	Skipped bool
}

// LatencyMs is the open-loop latency: due time to terminal event. A
// generator that falls behind charges its lateness to the request, so a
// stall shows up in every request queued behind it.
func (s sample) LatencyMs() float64 {
	if s.Failed {
		return missMs
	}
	return ms(s.Done - s.Due)
}

// LateMs is how late the generator sent the request.
func (s sample) LateMs() float64 { return ms(s.Sent - s.Due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clock is the time source of the open-loop generator, so the schedule
// accounting can be tested against a simulated clock.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// openLoop issues requests at their due times from one issuing
// goroutine: it sleeps until each is due (or sends at once when already
// late), and times it from its due time. Once the generator is more
// than abortLate behind schedule the remaining requests are skipped —
// the step is overloaded and waiting it out would only stretch the run.
// abortLate <= 0 never skips.
func openLoop(c clock, dues []time.Duration, abortLate time.Duration, do func(i int) bool) []sample {
	out := make([]sample, len(dues))
	for i, due := range dues {
		c.SleepUntil(due)
		s := sample{Due: due, Sent: c.Now()}
		if abortLate > 0 && s.Sent-due > abortLate {
			for j := i; j < len(dues); j++ {
				out[j] = sample{Due: dues[j], Skipped: true}
			}
			break
		}
		s.Failed = !do(i)
		s.Done = c.Now()
		out[i] = s
	}
	return out
}

// stepVerdict judges one ramp step: it passes when nothing failed or was
// skipped, the latency tail stays within limitMs, and the generator's
// lateness did not grow from the first quarter of the step to the last
// (a growing backlog means the rate is not sustainable however the tail
// looks over a short step).
func stepVerdict(ss []sample, limitMs, growMs float64) (pass bool, tail timing, why string) {
	lat := make([]float64, 0, len(ss))
	sorted := append([]sample(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Due < sorted[j].Due })
	for _, s := range sorted {
		if s.Skipped {
			return false, summarize(lat), "backlog: generator fell behind"
		}
		lat = append(lat, s.LatencyMs())
	}
	tail = summarize(lat)
	for _, s := range sorted {
		if s.Failed {
			return false, tail, "request failed"
		}
	}
	if tail.Tail > limitMs {
		return false, tail, "latency tail over limit"
	}
	q := len(sorted) / 4
	if q > 0 {
		first, last := 0.0, 0.0
		for i := 0; i < q; i++ {
			first += sorted[i].LateMs()
			last += sorted[len(sorted)-q+i].LateMs()
		}
		if (last-first)/float64(q) > growMs {
			return false, tail, "lateness growing"
		}
	}
	return true, tail, ""
}

// stamped is a latency sample and the time it completed.
type stamped struct {
	At time.Time
	Ms float64
}

// windowed splits the samples completed in [from, to) into n equal time
// windows.
func windowed(xs []stamped, from, to time.Time, n int) [][]float64 {
	out := make([][]float64, n)
	span := to.Sub(from)
	if span <= 0 {
		return out
	}
	for _, x := range xs {
		if x.At.Before(from) || !x.At.Before(to) {
			continue
		}
		i := int(int64(n) * int64(x.At.Sub(from)) / int64(span))
		out[i] = append(out[i], x.Ms)
	}
	return out
}

// tailQ is the percentile every end-to-end tail is reported at, and
// tailWindow how many consecutive samples (in completion order) each
// window of a windowed tail holds. p90 has twenty samples beyond it in a
// window and ten in a pooled tail of a hundred. It is chosen below the
// daemon's WAL fsync cliff: with -wal-sync interval each shard holds its
// WAL lock through an fsync ten times a second, so a few percent of
// appends wait for the disk, and a p95 or p99 swings with the disk's
// fsync latency from run to run rather than with the program. That
// stall is not hidden: the per-layer server.submit_ms_tail_all,
// server.ack_ms_tail_all and durable.append_us_tail take the highest
// percentile the sample count allows over every sample, unfiltered.
// minWindowed is the fewest samples that are cut into windows; fewer
// give a pooled p90. The percentile is fixed, not taken from each run's
// count, so a figure never jumps between percentiles across runs.
const (
	tailQ       = 0.90
	tailWindow  = 200
	minWindowed = 5 * tailWindow
)

// windowedTail is a timing's tail made robust to bursts of outside
// noise: the samples are cut, in completion order, into windows of
// tailWindow, each window's tailQ percentile is taken, and the median
// over windows is returned. A burst then moves a window or two, not the
// figure; a stall the program makes in every window still moves every
// window. It also returns the sample count per window (or in all, when
// pooled).
func windowedTail(xs []stamped) (tail float64, n int) {
	s := append([]stamped(nil), xs...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].At.Before(s[j].At) })
	if len(s) < minWindowed {
		return quantile(values(s), tailQ), len(s)
	}
	var tails []float64
	for i := 0; i+tailWindow <= len(s); i += tailWindow {
		tails = append(tails, quantile(values(s[i:i+tailWindow]), tailQ))
	}
	return quantile(tails, 0.5), tailWindow
}

func values(xs []stamped) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.Ms
	}
	return out
}
