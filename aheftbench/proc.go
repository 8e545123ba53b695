package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux ABI Go supports.
const clkTck = 100

// parseStatCPU returns utime+stime from the contents of
// /proc/<pid>/stat, in milliseconds. The command name (field 2) is
// parenthesised and may itself contain spaces or parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	// After ")": field 3 (state) is the first; utime and stime are
	// fields 14 and 15, i.e. the 12th and 13th after the command.
	f := bytes.Fields(b[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return float64(ut+st) * 1000 / clkTck, nil
}

// parseStatusKB returns a "Key:   1234 kB" field of /proc/<pid>/status
// in kilobytes.
func parseStatusKB(b []byte, key string) (float64, error) {
	for _, line := range bytes.Split(b, []byte("\n")) {
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok || string(k) != key {
			continue
		}
		f := bytes.Fields(v)
		if len(f) == 0 {
			return 0, fmt.Errorf("status: %s has no value", key)
		}
		n, err := strconv.ParseFloat(string(f[0]), 64)
		if err != nil {
			return 0, fmt.Errorf("status: %s: %w", key, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("status: no %s field", key)
}

// procCPUms reads a process's cumulative CPU time (pid 0 = this process).
func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procHWMmb reads a process's peak resident set (VmHWM) in MB.
func procHWMmb(pid int) (float64, error) {
	b, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	return kb / 1024, err
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// hostCPU returns the machine's total and stolen CPU ticks from the
// aggregate line of /proc/stat. Steal is time a virtual CPU was ready
// but the hypervisor ran someone else: a run measured under heavy steal
// reads slow for reasons outside the program.
func hostCPU() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseFloat(string(v), 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}
