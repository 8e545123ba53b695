package main

import (
	"math"
	"sort"
	"time"
)

// The machine this benchmark was built on is a 2-vCPU virtual machine
// whose hypervisor steals anywhere from 0% to over 30% of its CPU time,
// in bursts, depending on its neighbours. A stolen vCPU stretches every
// request in flight, so wall-clock figures taken through a burst measure
// the neighbours rather than the daemon. The steal monitor samples the
// machine's steal counter through each measured phase, and latency and
// throughput are taken over the quiet intervals only: those with at
// most quietSteal of the machine's CPU stolen, or, when fewer than half
// are that quiet, the quieter half. CPU time, memory and makespans are
// taken over the whole phase.

const (
	stealEvery = 500 * time.Millisecond
	quietSteal = 0.03
)

// stealMonitor samples the machine's total and stolen CPU ticks every
// stealEvery until finish.
type stealMonitor struct {
	stop, done chan struct{}
	at         []time.Time
	total      []float64
	steal      []float64
}

func startStealMonitor() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.sample()
			case <-m.stop:
				return
			}
		}
	}()
	return m
}

func (m *stealMonitor) sample() {
	total, steal, err := hostCPU()
	if err != nil {
		return // no /proc/stat: every interval reads as quiet
	}
	m.at = append(m.at, time.Now())
	m.total = append(m.total, total)
	m.steal = append(m.steal, steal)
}

// finish stops the monitor and returns which of its intervals were
// quiet.
func (m *stealMonitor) finish() quietness {
	close(m.stop)
	<-m.done
	m.sample()
	shares := make([]float64, 0, len(m.at))
	for i := 1; i < len(m.at); i++ {
		s := 0.0
		if dt := m.total[i] - m.total[i-1]; dt > 0 {
			s = (m.steal[i] - m.steal[i-1]) / dt
		}
		shares = append(shares, s)
	}
	return quietness{at: m.at, keep: quietIntervals(shares), shares: shares}
}

// quietIntervals marks the intervals with at most quietSteal stolen; when
// fewer than half are, it marks the quieter half instead.
func quietIntervals(shares []float64) []bool {
	keep := make([]bool, len(shares))
	n := 0
	for i, s := range shares {
		if s <= quietSteal {
			keep[i] = true
			n++
		}
	}
	half := (len(shares) + 1) / 2
	if n >= half {
		return keep
	}
	idx := make([]int, len(shares))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return shares[idx[a]] < shares[idx[b]] })
	for i, j := range idx {
		keep[j] = i < half
	}
	return keep
}

// quietness says which stretches of a phase were quiet. Interval i runs
// from at[i] to at[i+1].
type quietness struct {
	at     []time.Time
	keep   []bool
	shares []float64
}

// interval returns the index of the interval holding t, or -1.
func (q quietness) interval(t time.Time) int {
	i := sort.Search(len(q.at), func(i int) bool { return q.at[i].After(t) }) - 1
	if i < 0 || i >= len(q.keep) {
		return -1
	}
	return i
}

// quiet filters samples to those that completed in a quiet interval.
func (q quietness) quiet(xs []stamped) []stamped {
	var out []stamped
	for _, x := range xs {
		if i := q.interval(x.At); i >= 0 && q.keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// rate is the completions per second over the quiet intervals that lie
// within [from, to).
func (q quietness) rate(done []time.Time, from, to time.Time) float64 {
	secs, n := 0.0, 0
	for i, k := range q.keep {
		if !k {
			continue
		}
		a, b := q.at[i], q.at[i+1]
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			secs += b.Sub(a).Seconds()
		}
	}
	for _, t := range done {
		if !t.Before(from) && t.Before(to) {
			if i := q.interval(t); i >= 0 && q.keep[i] {
				n++
			}
		}
	}
	if secs == 0 {
		return 0
	}
	return float64(n) / secs
}

// summary describes the filtering for the run notes.
func (q quietness) summary() (kept, all int, meanSteal float64) {
	for i, k := range q.keep {
		if k {
			kept++
		}
		meanSteal += q.shares[i]
	}
	all = len(q.keep)
	if all > 0 {
		meanSteal /= float64(all)
	}
	return kept, all, math.Round(meanSteal*1000) / 10
}
