package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"unijoin/client"
)

// This file supervises the real sjserved / sjrouter processes of one
// round. A fleet owns a private directory (logs) and free loopback
// ports; stop is safe to defer, so the children are SIGTERM'd — then
// killed after stopGrace — on success, failure and panic alike, and
// Pdeathsig takes them down if the benchmark itself is killed.

const (
	// healthWait bounds how long a child may take to answer healthz.
	healthWait = 30 * time.Second
	// stopGrace is how long a SIGTERM'd child gets before SIGKILL.
	stopGrace = 5 * time.Second
	// clockTick is the kernel's USER_HZ, the unit of the CPU fields in
	// /proc/<pid>/stat; it is 100 on every Linux ABI Go runs on.
	clockTick = 100
)

// fleetSpec describes the processes of one round: one direct sjserved
// when Stripes is empty, otherwise one sjserved per stripe behind an
// sjrouter.
type fleetSpec struct {
	Loads   []string // -load name=path arguments
	Region  string   // -region, bounds of the workload histogram
	Stripes []string // -stripe lo:hi per shard; empty = one direct server
}

// proc is one supervised child.
type proc struct {
	name    string
	cmd     *exec.Cmd
	url     string
	logPath string
	exited  chan struct{} // closed once Wait returned
	waitErr error         // valid after exited is closed
}

// fleet is the running processes of one round.
type fleet struct {
	dir    string
	procs  []*proc
	shards []*proc // the sjserved processes, in stripe order
	front  *proc   // where clients connect: the router, or the one server

	stopOnce sync.Once
	stopErr  error
}

// binaries locates the built programs.
type binaries struct{ served, router string }

// startFleet spawns the processes of spec, logging under dir, and
// returns once every one answers healthz. The shards start together;
// the router starts only after they are healthy, so its -wait fleet
// check (which also verifies that the stripes tile the x-axis) passes
// on the first attempt instead of sleeping through a retry.
func startFleet(ctx context.Context, bins binaries, dir string, spec fleetSpec) (fl *fleet, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fl = &fleet{dir: dir}
	defer func() {
		if err != nil {
			err = errors.Join(err, fl.stop())
		}
	}()

	stripes := spec.Stripes
	if len(stripes) == 0 {
		stripes = []string{""}
	}
	for i, stripe := range stripes {
		args := []string{"-index", "all", "-region", spec.Region}
		for _, l := range spec.Loads {
			args = append(args, "-load", l)
		}
		if stripe != "" {
			args = append(args, "-stripe", stripe)
		}
		p, err := fl.spawn(fmt.Sprintf("sjserved-%d", i), bins.served, args)
		if err != nil {
			return fl, err
		}
		fl.shards = append(fl.shards, p)
	}
	for _, p := range fl.shards {
		if err := fl.awaitHealthy(ctx, p); err != nil {
			return fl, err
		}
	}
	fl.front = fl.shards[0]
	if len(spec.Stripes) > 0 {
		args := []string{"-wait", healthWait.String()}
		for _, p := range fl.shards {
			args = append(args, "-shard", p.url)
		}
		router, err := fl.spawn("sjrouter", bins.router, args)
		if err != nil {
			return fl, err
		}
		if err := fl.awaitHealthy(ctx, router); err != nil {
			return fl, err
		}
		fl.front = router
	}
	return fl, nil
}

// spawn starts one child on a free loopback port with its stderr
// going to a log file in the fleet's directory.
func (fl *fleet) spawn(name, bin string, args []string) (*proc, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{
		name: name, url: "http://" + addr,
		logPath: filepath.Join(fl.dir, name+".log"),
		exited:  make(chan struct{}),
	}
	logFile, err := os.Create(p.logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout = logFile
	p.cmd.Stderr = logFile
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	fl.procs = append(fl.procs, p)
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// freeLoopbackAddr asks the kernel for an unused loopback port. The
// port is released before the child binds it; nothing else on a
// benchmark box races for loopback ports in that instant.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// awaitHealthy polls p's healthz until it answers, p exits, ctx ends
// or healthWait passes.
func (fl *fleet) awaitHealthy(ctx context.Context, p *proc) error {
	cl := client.New(p.url, nil)
	deadline := time.Now().Add(healthWait)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := cl.Health(hctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was healthy: %v\n%s", p.name, p.waitErr, p.logTail(20))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s: %v\n%s", p.name, healthWait, err, p.logTail(20))
		}
	}
}

// stop ends every child — SIGTERM, then SIGKILL after stopGrace — and
// reports what went wrong during the round: a child that had already
// exited on its own, a non-zero exit from the graceful shutdown, or an
// ERROR line in a child's log. It is idempotent.
func (fl *fleet) stop() error {
	fl.stopOnce.Do(func() {
		var errs []error
		early := make([]bool, len(fl.procs))
		for i, p := range fl.procs {
			select {
			case <-p.exited:
				early[i] = true
				errs = append(errs, fmt.Errorf("%s exited during the round: %v\n%s", p.name, p.waitErr, p.logTail(20)))
			default:
				// A signal error means the child is already gone; the
				// wait below reports how it went.
				_ = p.cmd.Process.Signal(syscall.SIGTERM)
			}
		}
		// grace is closed, not sent on, so it releases every child
		// still running when it expires, not just the first.
		grace := make(chan struct{})
		timer := time.AfterFunc(stopGrace, func() { close(grace) })
		defer timer.Stop()
		for i, p := range fl.procs {
			select {
			case <-p.exited:
				if p.waitErr != nil && !early[i] {
					errs = append(errs, fmt.Errorf("%s did not shut down cleanly: %v\n%s", p.name, p.waitErr, p.logTail(20)))
				}
			case <-grace:
				_ = p.cmd.Process.Kill()
				<-p.exited
				errs = append(errs, fmt.Errorf("%s ignored SIGTERM for %s and was killed", p.name, stopGrace))
			}
		}
		for _, p := range fl.procs {
			if line := p.firstErrorLine(); line != "" {
				errs = append(errs, fmt.Errorf("%s logged an error: %s\n%s", p.name, line, p.logTail(20)))
			}
		}
		fl.stopErr = errors.Join(errs...)
	})
	return fl.stopErr
}

// logTail returns the last n lines of the child's log, indented.
func (p *proc) logTail(n int) string {
	data, err := os.ReadFile(p.logPath)
	if err != nil {
		return "  (no log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	lines = lines[max(len(lines)-n, 0):]
	return "  | " + strings.Join(lines, "\n  | ")
}

// firstErrorLine returns the first slog ERROR line of the child's log
// ("" when there is none).
func (p *proc) firstErrorLine() string {
	f, err := os.Open(p.logPath)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte("level=ERROR")) {
			return sc.Text()
		}
	}
	return ""
}

// cpu returns the user+system CPU time all fleet processes have
// consumed so far, from /proc/<pid>/stat.
func (fl *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range fl.procs {
		d, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		total += d
	}
	return total, nil
}

// procCPU reads utime+stime (fields 14 and 15) of one process. The
// command name in field 2 may contain spaces, so fields are counted
// from the closing parenthesis.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	fields := strings.Fields(string(rest)) // fields[0] is field 3 (state)
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// rssPeakMB sums the peak resident set (VmHWM) of all fleet processes,
// in MB. It must be read while they are alive.
func (fl *fleet) rssPeakMB() (float64, error) {
	var totalKB int64
	for _, p := range fl.procs {
		kb, err := procPeakRSSKB(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		totalKB += kb
	}
	return float64(totalKB) / 1024, nil
}

// procPeakRSSKB reads VmHWM from /proc/<pid>/status.
func procPeakRSSKB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
