package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"aheft/internal/server"
)

// requestTimeout bounds every HTTP call the benchmark makes.
const requestTimeout = 10 * time.Second

// daemon is one aheftd child process serving a fresh durability
// directory.
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string
	// setup is spawn → first 200 from /v1/healthz: process start, WAL
	// open and recovery of the (empty) directory.
	setup   time.Duration
	exited  chan error
	stopped bool
	stopErr error
}

// startDaemon spawns bin with default flags plus a fresh -data-dir under
// work (so the daemon is durable, -wal-sync interval) and waits until
// /v1/healthz answers 200.
func startDaemon(bin, work string, traced bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "aheftd-")
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", filepath.Join(dir, "data")}
	if traced {
		args = append(args, "-trace")
	}
	logf, err := os.Create(filepath.Join(dir, "aheftd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), dir: dir}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon dies with the benchmark, however the benchmark ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("spawn aheftd: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(t0)
				break
			}
		}
		select {
		case err := <-exited:
			log, _ := os.ReadFile(filepath.Join(dir, "aheftd.log"))
			os.RemoveAll(dir)
			return nil, fmt.Errorf("aheftd exited before ready (%v): %s", err, log)
		case <-time.After(250 * time.Microsecond):
		}
		if time.Since(t0) > 30*time.Second {
			d.kill(exited)
			return nil, fmt.Errorf("aheftd not ready after 30s")
		}
	}
	d.exited = exited
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// metrics fetches the daemon's /metrics document.
func (d *daemon) metrics() (server.MetricsDoc, error) {
	var m server.MetricsDoc
	client := &http.Client{Timeout: requestTimeout}
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// stop drains the daemon with SIGTERM (SIGKILL after 20s), waits for
// the process to exit and removes its directory. Later calls return the
// first call's result.
func (d *daemon) stop() error {
	if d.stopped {
		return d.stopErr
	}
	d.stopped = true
	defer os.RemoveAll(d.dir)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-d.exited
		return nil
	}
	select {
	case err := <-d.exited:
		if err != nil && !killedBy(err, syscall.SIGTERM) {
			d.stopErr = fmt.Errorf("aheftd drain: %v", err)
		}
	case <-time.After(20 * time.Second):
		d.kill(d.exited)
		d.stopErr = fmt.Errorf("aheftd did not drain within 20s")
	}
	return d.stopErr
}

func (d *daemon) kill(exited chan error) {
	_ = d.cmd.Process.Kill()
	<-exited
	os.RemoveAll(d.dir)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// killedBy reports whether a process exit was death by sig. aheftd
// installs its SIGTERM handler just after /v1/healthz turns ready, so a
// daemon stopped the instant it is ready (the set-up spawns) can die of
// the signal itself instead of draining; with nothing accepted there is
// nothing to drain.
func killedBy(err error, sig syscall.Signal) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}
