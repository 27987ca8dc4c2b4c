package prof

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ping/internal/obs"
)

// burn spins without allocating so its CPU samples land in this frame
// under whatever pprof labels the goroutine carries.
//
//go:noinline
func burn(stop <-chan struct{}) uint64 {
	var acc uint64 = 1
	for i := 0; ; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
		if i%4096 == 0 {
			select {
			case <-stop:
				return acc
			default:
			}
		}
	}
}

// captureLabeledProfile burns CPU on two goroutines labeled with fp
// while one capture window runs into a fresh dir, and returns the path
// of the captured CPU profile.
func captureLabeledProfile(t *testing.T, fp string, window time.Duration) string {
	t.Helper()
	dir := t.TempDir()
	c, err := StartCapture(CaptureConfig{
		Dir:       dir,
		Interval:  time.Hour, // the loop must not fire on its own mid-test
		CPUWindow: window,
		MaxFiles:  2,
		Registry:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := WithQueryFP(context.Background(), fp)
			Do(ctx, "pqa", func(context.Context) { burn(stop) })
		}()
	}
	c.CaptureOnce()
	close(stop)
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// One capture into an empty dir: the profile is the active file.
	return filepath.Join(dir, "cpu.pprof")
}

// pprofRaw prints a profile file with the toolchain's pprof, the
// reference reader of the capture format; it fails the test when the
// file is not one parseable profile.
func pprofRaw(t *testing.T, file string) string {
	t.Helper()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(goBin, "tool", "pprof", "-raw", "-symbolize=none", file).Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("go tool pprof -raw %s: %v\n%s", file, err, stderr)
	}
	return string(out)
}

var rawLabel = regexp.MustCompile(`(\S+):\[([^\]]*)\]`)

// cpuByLabel sums the CPU nanoseconds of a profile's samples per value
// of the pprof label key, read from go tool pprof -raw; unlabeled is the
// CPU of samples without that label.
func cpuByLabel(t *testing.T, file, key string) (by map[string]int64, unlabeled int64) {
	t.Helper()
	lines := strings.Split(pprofRaw(t, file), "\n")
	start := -1
	for i, l := range lines {
		if l == "Samples:" {
			start = i
			break
		}
	}
	if start < 0 || start+1 >= len(lines) {
		t.Fatalf("%s: no Samples section in pprof -raw output", file)
	}
	col := -1
	for i, f := range strings.Fields(lines[start+1]) {
		if f == "cpu/nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("%s: no cpu/nanoseconds sample type in %q", file, lines[start+1])
	}
	by = make(map[string]int64)
	var last int64 // CPU of the sample the next label line belongs to
	// Each sample is a values line ("count ns: loc ids"), optionally
	// followed by an indented label line ("key:[v] key:[v]"). The
	// section ends at the first unindented line.
	for _, l := range lines[start+2:] {
		if !strings.HasPrefix(l, " ") {
			break
		}
		if !strings.Contains(l, ":[") {
			vals, _, _ := strings.Cut(l, ":")
			f := strings.Fields(vals)
			if col >= len(f) {
				t.Fatalf("%s: short sample line %q", file, l)
			}
			ns, err := strconv.ParseInt(f[col], 10, 64)
			if err != nil {
				t.Fatalf("%s: sample line %q: %v", file, l, err)
			}
			last = ns
			unlabeled += ns
			continue
		}
		for _, m := range rawLabel.FindAllStringSubmatch(l, -1) {
			if m[1] == key {
				by[m[2]] += last
				unlabeled -= last
			}
		}
	}
	return by, unlabeled
}

// TestCaptureAttributesCPUToFingerprint is the attribution acceptance
// path: CPU burned inside prof.Do under a query fingerprint shows up in
// the captured profile as samples labeled with that fingerprint, and
// the labeled share dominates — the only busy goroutines are labeled,
// so losing attribution would mean label propagation is broken.
func TestCaptureAttributesCPUToFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU profiling window in -short")
	}
	const fp = "fp-capture-test"
	// Profile sampling is statistical; allow a retry before declaring
	// attribution broken.
	for attempt := 0; ; attempt++ {
		file := captureLabeledProfile(t, fp, 400*time.Millisecond)
		byFP, unlabeled := cpuByLabel(t, file, LabelQueryFP)
		var labeled int64
		for _, ns := range byFP {
			labeled += ns
		}
		total := labeled + unlabeled
		if total > 0 && byFP[fp] > 0 && float64(labeled)/float64(total) >= 0.9 {
			// Also check the stage label rode along.
			byStage, _ := cpuByLabel(t, file, LabelStage)
			if byStage["pqa"] == 0 {
				t.Fatalf("stage label missing: %v", byStage)
			}
			return
		}
		if attempt >= 2 {
			t.Fatalf("labeled CPU %d of %d ns (fp share %d) after %d attempts — query execution samples are not carrying %s",
				labeled, total, byFP[fp], attempt+1, LabelQueryFP)
		}
	}
}

// TestCaptureBoundsDiskAndKeepsParseableGenerations proves the disk
// budget: repeated captures never hold more than MaxFiles rotated
// generations plus the active file per kind, and every generation file
// is one complete, independently parseable profile.
func TestCaptureBoundsDiskAndKeepsParseableGenerations(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU profiling windows in -short")
	}
	dir := t.TempDir()
	c, err := StartCapture(CaptureConfig{
		Dir:       dir,
		Interval:  time.Hour,
		CPUWindow: 30 * time.Millisecond,
		MaxFiles:  2,
		Registry:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.CaptureOnce()
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Dropped() != 0 {
		t.Errorf("capturer dropped %d profiles", c.Dropped())
	}

	for _, kind := range []string{"cpu.pprof", "heap.pprof"} {
		files, err := filepath.Glob(filepath.Join(dir, kind+"*"))
		if err != nil {
			t.Fatal(err)
		}
		// Active file + at most MaxFiles generations.
		if len(files) == 0 || len(files) > 3 {
			t.Errorf("%s: %d files on disk, want 1..3: %v", kind, len(files), files)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				// The active file is empty right after a rotation boundary.
				continue
			}
			pprofRaw(t, f)
		}
	}
}
