package prof

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"ping/internal/obs"
)

// CaptureConfig configures continuous profile capture.
type CaptureConfig struct {
	// Dir receives cpu.pprof / heap.pprof plus rotated generations.
	Dir string
	// Interval between capture rounds (<=0: 60s).
	Interval time.Duration
	// CPUWindow is how long each CPU profile records (<=0: 5s; clamped
	// below Interval).
	CPUWindow time.Duration
	// MaxFiles bounds rotated generations kept per profile kind (<=0:
	// 3). Disk usage is bounded by 2 kinds x (MaxFiles+1 files) x the
	// largest single profile.
	MaxFiles int
	// Registry receives prof_* capture counters (nil: obs.Default).
	Registry *obs.Registry
}

// Capturer periodically captures CPU and heap profiles, writing each
// into an obs.RotatingFile from the capture goroutine, off the query
// path. Each capture is exactly one write of the profile's bytes, and
// the rotating files use a 1-byte size cap so every write rotates the
// previous profile out: one complete profile per generation file, as
// go tool pprof reads it (concatenated gzip profiles would not merge
// meaningfully), with RotatingFile's pruning and restart-aware
// numbering bounding total disk.
type Capturer struct {
	cfg      CaptureConfig
	cpuFile  *obs.RotatingFile
	heapFile *obs.RotatingFile

	captured *obs.Counter
	heapCap  *obs.Counter
	errs     *obs.Counter

	stop chan struct{}
	done chan struct{}
}

// StartCapture opens the profile files under cfg.Dir and launches the
// capture loop. Close flushes and stops it.
func StartCapture(cfg CaptureConfig) (*Capturer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("prof: capture dir required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: capture dir: %w", err)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	if cfg.CPUWindow <= 0 {
		cfg.CPUWindow = 5 * time.Second
	}
	if cfg.CPUWindow >= cfg.Interval {
		cfg.CPUWindow = cfg.Interval / 2
	}
	if cfg.MaxFiles <= 0 {
		cfg.MaxFiles = 3
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	reg.Describe("prof_profiles_captured_total", "profiles captured, by kind")
	reg.Describe("prof_profile_capture_errors_total", "profile capture failures")

	cpuFile, err := obs.OpenRotatingFile(filepath.Join(cfg.Dir, "cpu.pprof"), 1, cfg.MaxFiles)
	if err != nil {
		return nil, err
	}
	heapFile, err := obs.OpenRotatingFile(filepath.Join(cfg.Dir, "heap.pprof"), 1, cfg.MaxFiles)
	if err != nil {
		cpuFile.Close()
		return nil, err
	}
	c := &Capturer{
		cfg:      cfg,
		cpuFile:  cpuFile,
		heapFile: heapFile,
		captured: reg.Counter("prof_profiles_captured_total", obs.Labels{"kind": "cpu"}),
		heapCap:  reg.Counter("prof_profiles_captured_total", obs.Labels{"kind": "heap"}),
		errs:     reg.Counter("prof_profile_capture_errors_total", nil),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go c.loop()
	return c, nil
}

func (c *Capturer) loop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.CaptureOnce()
		}
	}
}

// CaptureOnce records one CPU profile window and one heap snapshot and
// queues both for persistence. It is the loop body, exported so tests
// (and callers wanting an on-demand capture) can drive it directly.
func (c *Capturer) CaptureOnce() {
	c.captureCPU()
	c.captureHeap()
}

func (c *Capturer) captureCPU() {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another profiler owns the CPU profile (e.g. -cpuprofile).
		c.errs.Inc()
		return
	}
	select {
	case <-time.After(c.cfg.CPUWindow):
	case <-c.stop:
		// Shutting down mid-window: keep the short profile.
	}
	pprof.StopCPUProfile()
	if _, err := c.cpuFile.Write(buf.Bytes()); err != nil {
		c.errs.Inc()
		return
	}
	c.captured.Inc()
}

func (c *Capturer) captureHeap() {
	p := pprof.Lookup("heap")
	if p == nil {
		c.errs.Inc()
		return
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 0); err != nil {
		c.errs.Inc()
		return
	}
	if _, err := c.heapFile.Write(buf.Bytes()); err != nil {
		c.errs.Inc()
		return
	}
	c.heapCap.Inc()
}

// Dropped reports profiles lost: captures that failed to start or to
// reach disk.
func (c *Capturer) Dropped() int64 {
	return c.errs.Value()
}

// Close stops the loop and closes the rotating files.
func (c *Capturer) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
	err := c.cpuFile.Close()
	if herr := c.heapFile.Close(); err == nil {
		err = herr
	}
	return err
}
