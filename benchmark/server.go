package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot finds the directory holding the module's go.mod, starting
// from the working directory (the repository root under `go run`, the
// package directory under `go test`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module ping\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the ping module: no go.mod found")
		}
		dir = parent
	}
}

// buildPingd compiles the real daemon from the checkout's sources.
func buildPingd(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "pingd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pingd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pingd: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running pingd child.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *os.File
	// exited is closed once the child has been waited for.
	exited chan struct{}
	// ready is how long the process took from start until /stats
	// answered 200.
	ready time.Duration
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts pingd on the store with its shipped defaults — only
// -store and -addr are passed, plus extra for the traced run — and waits
// until /stats answers.
func launch(ctx context.Context, bin, store, logDir string, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(logDir, "pingd-*.log")
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-store", store, "-addr", addr}, extra...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, stderr: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled child says nothing
		close(s.exited)
	}()
	for {
		resp, err := http.Get(s.base + "/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			defer s.stop()
			return nil, fmt.Errorf("pingd exited before listening:\n%s", s.log())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			defer s.stop()
			return nil, fmt.Errorf("pingd did not answer /stats within 30 s:\n%s", s.log())
		}
	}
}

// log returns the end of what pingd wrote (it logs every request);
// shown only when something failed.
func (s *server) log() string {
	data, _ := os.ReadFile(s.stderr.Name())
	if len(data) > 4<<10 {
		data = append([]byte("...\n"), data[len(data)-4<<10:]...)
	}
	return string(data)
}

// stop ends the child, waits until it is gone, and drops its log; a
// caller that wants the log reads it first.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.stderr.Close()
	os.Remove(s.stderr.Name())
}

// procTimes reads the child's cumulative user+system CPU time and its
// resident-set high-water mark from /proc.
func (s *server) procTimes() (cpu time.Duration, rssPeakMB float64, err error) {
	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, in clock ticks of 10 ms.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	cpu = time.Duration(utime+stime) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("bad VmHWM %q", v)
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// pingdStats is the part of /stats the benchmark reads.
type pingdStats struct {
	Epoch int `json:"epoch"`
}

func (s *server) stats() (pingdStats, error) {
	var st pingdStats
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// counters scrapes the unlabelled series of /metrics.
func (s *server) counters() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parsePrometheus(resp.Body)
}

func parsePrometheus(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
