package main

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ping/internal/obs"
)

// keptFlags is pingd's whole command line; every other setting is the
// default of the package it configures.
var keptFlags = []string{
	"addr", "admin-addr", "admission-cpu", "advise-apply", "advise-interval",
	"bloom", "cursor-ttl", "failure-policy", "max-inflight", "max-queue",
	"profile-dir", "query-timeout", "rows", "shutdown-grace",
	"slow-query-log", "slow-query-threshold", "store", "strategy", "trace",
	"trace-export", "trace-sample", "wide-events", "workload-out",
}

func registeredFlags() map[string]bool {
	names := make(map[string]bool)
	newFlagSet(&daemonConfig{}).VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}

var (
	// pingdCall matches a line that runs pingd with at least one flag.
	pingdCall = regexp.MustCompile("(^|[\\s/`])pingd\\s+-")
	flagToken = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
)

// pingdFlagsIn returns every -name passed to pingd in doc: on a line
// that invokes it and on the lines that continue that line with a
// trailing backslash. A backtick, pipe, ampersand, semicolon or comment
// ends the invocation.
func pingdFlagsIn(doc string) []string {
	var names []string
	cont := false
	for _, ln := range strings.Split(doc, "\n") {
		args := ""
		if loc := pingdCall.FindStringIndex(ln); loc != nil {
			args = ln[loc[1]-1:]
		} else if cont {
			args = ln
		} else {
			continue
		}
		cont = strings.HasSuffix(strings.TrimSpace(ln), `\`)
		if i := strings.IndexAny(args, "`|&;#"); i >= 0 {
			args = args[:i]
			cont = false
		}
		for _, m := range flagToken.FindAllStringSubmatch(args, -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// TestFlagCatalogue pins pingd's flags to the kept list and to the
// docs: every flag is documented in README.md, and every flag a README
// or verify-skill recipe passes to pingd exists.
func TestFlagCatalogue(t *testing.T) {
	reg := registeredFlags()
	var got []string
	for name := range reg {
		got = append(got, name)
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(keptFlags, " ") {
		t.Fatalf("registered flags:\n  %v\nwant:\n  %v", got, keptFlags)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if !strings.Contains(string(readme), "`-"+name+"`") {
			t.Errorf("README.md does not document -%s", name)
		}
	}
	for _, doc := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		used := pingdFlagsIn(string(data))
		if len(used) == 0 {
			t.Errorf("%s: found no pingd invocation (pattern rot?)", doc)
		}
		for _, name := range used {
			if !reg[name] {
				t.Errorf("%s passes pingd -%s, which it does not register", doc, name)
			}
		}
	}
}

// TestPingdFlagsIn pins what the catalogue test counts as a pingd
// invocation.
func TestPingdFlagsIn(t *testing.T) {
	doc := "run `pingd -trace` or\n" +
		"./pingd -store s -addr :1 \\\n" +
		"    -wide-events e.ndjson -trace-sample 1 &\n" +
		"curl -XPOST x -d y\n" +
		"go run ./cmd/pingd -store s # -not-a-flag\n" +
		"pingquery -server http://h -timeout 1s\n"
	got := strings.Join(pingdFlagsIn(doc), " ")
	want := "trace store addr wide-events trace-sample store"
	if got != want {
		t.Fatalf("pingdFlagsIn = %q, want %q", got, want)
	}
}

// TestNegativeFlagsRejected: a negative duration or count is a usage
// error naming its flag, never a silently clamped setting.
func TestNegativeFlagsRejected(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"max-inflight", "-1"},
		{"max-queue", "-1"},
		{"query-timeout", "-1s"},
		{"admission-cpu", "-1s"},
		{"rows", "-1"},
		{"shutdown-grace", "-1s"},
		{"trace-sample", "-1"},
		{"advise-interval", "-1s"},
		{"slow-query-threshold", "-1ns"},
		{"cursor-ttl", "-1m"},
	} {
		var cfg daemonConfig
		fs := newFlagSet(&cfg)
		if err := fs.Parse([]string{"-store", "s", "-" + tc.flag, tc.value}); err != nil {
			t.Fatalf("-%s %s: parse: %v", tc.flag, tc.value, err)
		}
		err := cfg.resolve()
		if err == nil || !strings.Contains(err.Error(), "-"+tc.flag+" ") {
			t.Errorf("-%s %s: resolve() = %v, want an error naming -%s", tc.flag, tc.value, err, tc.flag)
		}
	}

	// Zero keeps its documented meaning: a default or off.
	var cfg daemonConfig
	fs := newFlagSet(&cfg)
	zeros := []string{"-store", "s"}
	for _, name := range []string{"max-inflight", "max-queue", "rows", "trace-sample"} {
		zeros = append(zeros, "-"+name, "0")
	}
	for _, name := range []string{"query-timeout", "admission-cpu", "shutdown-grace", "advise-interval", "slow-query-threshold", "cursor-ttl"} {
		zeros = append(zeros, "-"+name, "0s")
	}
	if err := fs.Parse(zeros); err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obs.NewRegistry()
	if err := cfg.resolve(); err != nil {
		t.Fatalf("all-zero flags rejected: %v", err)
	}
	if cfg.MaxInflight != defaultMaxInflight {
		t.Fatalf("-max-inflight 0 resolved to %d, want %d", cfg.MaxInflight, defaultMaxInflight)
	}
	if err := (&daemonConfig{}).resolve(); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("missing -store: resolve() = %v", err)
	}
}

// TestDefaultSLOs: a server configured from pingd's default flags
// serves exactly defaultObjectives at /slo — names, thresholds (in the
// descriptions) and targets.
func TestDefaultSLOs(t *testing.T) {
	var cfg daemonConfig
	if err := newFlagSet(&cfg).Parse([]string{"-store", "s"}); err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obs.NewRegistry()
	if err := cfg.resolve(); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, cfg.serverConfig)
	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc sloResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	want := defaultObjectives()
	if len(doc.Objectives) != len(want) || len(want) != 4 {
		t.Fatalf("/slo lists %d objectives, defaultObjectives %d, want 4 each", len(doc.Objectives), len(want))
	}
	for i, o := range doc.Objectives {
		w := want[i]
		if o.Name != w.Name || o.Description != w.Description || o.Target != w.Target {
			t.Errorf("objective %d: got %s (%q, target %v), want %s (%q, target %v)",
				i, o.Name, o.Description, o.Target, w.Name, w.Description, w.Target)
		}
	}
}
