package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs each workload n times, seeds 1..n, each run in a fresh
// process exactly as a single invocation would run, and prints for every
// metric its median, quartiles and spread (interquartile distance over
// median) against the metric's bound in BENCHMARK.json. A metric is
// steady when its spread is under a third of its bound. It fails when a
// run fails or a spread exceeds its bound.
func steadiness(n int, daemonBin, work string, seconds, trace int) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	wide := 0
	for _, wl := range []string{"intake", "live", "shared"} {
		vals := map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "-daemon", daemonBin, "-work", work, "-workload", wl,
				"-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				os.Stdout.Write(out.Bytes())
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, l := range lines {
				if strings.Contains(l, "stolen") {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %s\n", wl, seed, strings.TrimPrefix(l, "# "))
				}
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d", wl, seed, res.Correct, res.Failed)
			}
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
				units[k] = m.Unit
			}
		}
		names := make([]string, 0, len(vals))
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("== %s: %d runs, seeds 1..%d, -seconds %d, -trace %d\n", wl, n, n, seconds, trace)
		fmt.Printf("%-40s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, k := range names {
			q1, med, q3 := quartiles(vals[k])
			sp := spread(vals[k])
			b, ok := bounds[k]
			verdict := "-"
			switch {
			case !ok:
			case sp <= b/3:
				verdict = "steady"
			case sp <= b:
				verdict = "within-bound"
			default:
				verdict = "WIDE"
				wide++
			}
			fmt.Printf("%-40s %12.4f %12.4f %12.4f %8.4f %6.3f  %s %s\n", k, q1, med, q3, sp, b, verdict, units[k])
		}
	}
	if wide > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", wide)
	}
	return nil
}

// readBounds returns the end-to-end metric bounds of a BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
