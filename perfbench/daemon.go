package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cliffhanger/internal/client"
)

// daemon is a cliffhangerd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	log  *os.File
}

// startDaemon launches bin on a free loopback port with args and returns
// once it answers a version request.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, done: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c, err := client.Dial(addr, 100*time.Millisecond); err == nil {
			_, err = c.Version()
			c.Close()
			if err == nil {
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.log.Close()
			return nil, fmt.Errorf("cliffhangerd exited during start-up (log %s)", logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cliffhangerd did not answer on %s within 10s", addr)
		}
	}
}

// stop kills the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.done
	d.log.Close()
}

// procCPU is the user+system CPU time pid has used, all threads included.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15, in clock ticks of 10ms.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// hostSteal is the CPU time the hypervisor has given to other guests, summed
// over this machine's CPUs: a trial that saw much of it ran on a busy host.
func hostSteal() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat steal: %w", err)
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSSMB is pid's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// counterKeys are the per-tenant stats counters summed across tenants.
var counterKeys = []string{"cmd_get", "get_hits", "get_misses", "cmd_set", "epoch_deferred_frees"}

// daemonCounters reads the daemon's counters over the wire: the per-tenant
// stats summed over tenants, plus the arbiter's move count. The stats verb
// does not expose evictions.
func daemonCounters(c *client.Client, tenants []tenantSpec) (map[string]int64, error) {
	out := make(map[string]int64)
	for _, t := range tenants {
		if err := c.SelectTenant(t.name); err != nil {
			return nil, err
		}
		st, err := c.Stats()
		if err != nil {
			return nil, err
		}
		for _, k := range counterKeys {
			n, err := strconv.ParseInt(st[k], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("stats %s=%q: %w", k, st[k], err)
			}
			out[k] += n
		}
	}
	as, err := c.StatsArbiter()
	if err != nil {
		return nil, err
	}
	out["arbiter_moves"] = as.Moves
	return out, nil
}
