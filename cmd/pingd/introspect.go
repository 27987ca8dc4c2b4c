package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ping/internal/obs"
	"ping/internal/obs/slo"
	"ping/internal/ping"
	"ping/internal/sparql"
	"ping/internal/workload"
)

// queryText extracts the SPARQL text of an introspection request from
// ?q= or the request body.
func queryText(r *http.Request) string {
	text := r.URL.Query().Get("q")
	if text == "" && r.Body != nil {
		body, _ := io.ReadAll(io.LimitReader(r.Body, obs.MaxQueryBytes))
		text = string(body)
	}
	return text
}

// handleExplain serves query plans. By default the plan is static
// (EXPLAIN); ?analyze=1 also runs the query and annotates every plan
// node with actual rows, cache hits and wall time (ANALYZE), going
// through the same admission control as /query. ?format=text renders
// the human-readable form; the default is indented JSON.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	text := queryText(r)
	if text == "" {
		http.Error(w, "missing query: pass ?q= or a request body", http.StatusBadRequest)
		return
	}
	q, err := sparql.Parse(text)
	if err != nil {
		http.Error(w, fmt.Sprintf("parse: %v", err), http.StatusBadRequest)
		return
	}

	proc := s.newProcessor(s.cfg.Strategy, s.cfg.FailurePolicy)

	var plan *ping.Plan
	if r.URL.Query().Get("analyze") == "1" {
		// ANALYZE executes the query, so it competes for execution slots
		// like any /query request.
		ctx := r.Context()
		if s.cfg.QueryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
			defer cancel()
		}
		release, code := s.admit(ctx)
		if release == nil {
			s.rejected.Inc()
			http.Error(w, http.StatusText(code), code)
			return
		}
		defer release()
		plan, _, err = proc.Analyze(ctx, q)
	} else {
		plan, err = proc.Explain(q)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("explain: %v", err), http.StatusInternalServerError)
		return
	}
	plan.Fingerprint = workload.Fingerprint(q)

	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = plan.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = plan.WriteJSON(w)
}

// workloadResponse is the /workload document.
type workloadResponse struct {
	Fingerprints []workload.FingerprintStats `json:"fingerprints"`
	Dropped      int64                       `json:"dropped"`
}

// handleWorkload serves the workload profiler's aggregates, sorted by
// total latency descending. ?top=N truncates; ?format=ndjson emits the
// snapshot persistence format instead of a JSON document.
func (s *server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	top := 0
	if v := r.URL.Query().Get("top"); v != "" {
		// strconv.Atoi, not Sscanf: reject trailing garbage ("5x") and
		// negative counts instead of silently serving the full snapshot.
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad top=%q", v), http.StatusBadRequest)
			return
		}
		top = n
	}
	// Truncate before the format branch so ?top=N bounds the ndjson
	// stream exactly like the JSON document.
	stats := s.profiler.Top(top)
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = workload.WriteNDJSON(w, stats)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(workloadResponse{Fingerprints: stats, Dropped: s.profiler.Dropped()})
}

// resourcesResponse is the /resources document: per-fingerprint
// measured cost, sorted most-expensive first.
type resourcesResponse struct {
	// Top ranks fingerprints by ledger task seconds, then total
	// latency.
	Top     []workload.FingerprintStats `json:"top"`
	Dropped int64                       `json:"dropped"`
	// InflightCPUSeconds is the cost-admission debt currently reserved;
	// AdmissionCPUSeconds the configured budget (0 = cost admission off).
	InflightCPUSeconds  float64 `json:"inflight_cpu_seconds"`
	AdmissionCPUSeconds float64 `json:"admission_cpu_seconds,omitempty"`
}

// handleResources serves the per-query resource ledger aggregates: the
// top resource consumers by measured CPU (the ledger's dataflow task
// seconds), with the full ledger per fingerprint. ?top=N truncates
// (default 20); ?format=ndjson emits the workload snapshot persistence
// format.
func (s *server) handleResources(w http.ResponseWriter, r *http.Request) {
	top := 20
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad top=%q", v), http.StatusBadRequest)
			return
		}
		top = n
	}
	stats := s.profiler.TopByCost(top)
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = workload.WriteNDJSON(w, stats)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resourcesResponse{
		Top:                 stats,
		Dropped:             s.profiler.Dropped(),
		InflightCPUSeconds:  time.Duration(s.inflightCost.Load()).Seconds(),
		AdmissionCPUSeconds: s.cfg.AdmissionCPU.Seconds(),
	})
}

// sloResponse is the /slo document.
type sloResponse struct {
	Objectives []slo.Status `json:"objectives"`
}

// handleSLO serves every objective's current state: the four rolling
// windows' good/bad counts, burn rates, and the alert state the
// multi-window policy derives from them.
func (s *server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(sloResponse{Objectives: s.cfg.SLO.Snapshot()})
}

// tracesResponse is the /traces document.
type tracesResponse struct {
	Dropped int64       `json:"dropped"`
	Traces  []*obs.Span `json:"traces"`
}

// handleTraces serves the retained query trace trees, oldest first.
// ?format=chrome renders them in the Chrome trace_event format, directly
// loadable in chrome://tracing or Perfetto.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		http.Error(w, "tracing disabled (start pingd with -trace)", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="pingd-trace.json"`)
		_ = obs.WriteChromeTrace(w, s.traces.Snapshot()...)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(tracesResponse{Dropped: s.traces.Dropped(), Traces: s.traces.Snapshot()})
}

// handleDashboard serves the live introspection page: a dependency-free
// HTML document that polls /stats and /workload and renders store state,
// admission pressure, the top fingerprints, and per-fingerprint coverage
// sparklines.
func (s *server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = io.WriteString(w, dashboardHTML)
}

const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>pingd dashboard</title>
<style>
  body { font: 13px/1.5 system-ui, sans-serif; margin: 1.5rem; color: #1a1a2e; background: #fafafa; }
  h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.6rem; }
  .cards { display: flex; flex-wrap: wrap; gap: .6rem; }
  .card { background: #fff; border: 1px solid #ddd; border-radius: 6px; padding: .5rem .9rem; min-width: 7rem; }
  .card .v { font-size: 1.3rem; font-weight: 600; }
  .card .k { color: #666; font-size: .75rem; text-transform: uppercase; letter-spacing: .04em; }
  table { border-collapse: collapse; background: #fff; width: 100%; }
  th, td { border: 1px solid #ddd; padding: .3rem .6rem; text-align: right; }
  th { background: #f0f0f4; } td.c, th.c { text-align: left; }
  td.c { font-family: ui-monospace, monospace; font-size: .75rem; max-width: 28rem;
         overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
  svg polyline { fill: none; stroke: #4361ee; stroke-width: 1.5; }
  #err { color: #b00020; }
  .slo-ok { color: #1b7f3b; font-weight: 600; }
  .slo-warning { color: #b07d00; font-weight: 600; }
  .slo-page { color: #b00020; font-weight: 600; }
</style>
</head>
<body>
<h1>pingd <span id="err"></span></h1>
<div class="cards" id="cards"></div>
<h2>Dictionary &amp; resident cache</h2>
<div class="cards" id="dictcards"></div>
<h2>Service-level objectives</h2>
<table id="slo"><thead><tr>
  <th class="c">objective</th><th class="c">description</th><th>target</th><th class="c">state</th>
  <th>burn 5m</th><th>burn 1h</th><th>burn 30m</th><th>burn 6h</th><th>bad/6h</th>
</tr></thead><tbody></tbody></table>
<h2>Layout advisor</h2>
<div class="cards" id="advcards"></div>
<div id="advdetail" style="margin-top:.5rem; color:#444;"></div>
<h2>Top fingerprints by total latency</h2>
<table id="wl"><thead><tr>
  <th class="c">fingerprint</th><th class="c">canonical</th><th>shape</th><th>count</th>
  <th>mean ms</th><th>p95 ms</th><th>errors</th><th>degraded</th>
  <th>steps→1st</th><th>coverage</th>
</tr></thead><tbody></tbody></table>
<h2>Top resource consumers</h2>
<div id="resnote" style="color:#666"></div>
<table id="res"><thead><tr>
  <th class="c">fingerprint</th><th>task s</th><th>rows loaded</th>
  <th>decoded</th><th>storage read</th><th>cache pinned</th><th>dict decodes</th><th>peak rel rows</th>
</tr></thead><tbody></tbody></table>
<script>
function card(k, v) {
  return '<div class="card"><div class="v">' + v + '</div><div class="k">' + k + '</div></div>';
}
function spark(cov) {
  if (!cov || !cov.length) return '';
  var w = 80, h = 18;
  function y(c) {
    // Clamp non-finite and out-of-range values so the SVG never gets NaN.
    var v = (typeof c === 'number' && isFinite(c)) ? Math.max(0, Math.min(1, c)) : 0;
    return ((1 - v) * (h - 2) + 1).toFixed(1);
  }
  var pts;
  if (cov.length === 1) {
    // A single point has no segment to draw; render a flat line at its level.
    pts = ['1,' + y(cov[0]), (w - 1) + ',' + y(cov[0])];
  } else {
    pts = cov.map(function (c, i) {
      return (i * w / (cov.length - 1)).toFixed(1) + ',' + y(c);
    });
  }
  return '<svg width="' + w + '" height="' + h + '"><polyline points="' + pts.join(' ') + '"/></svg>';
}
function esc(s) {
  // Escape quotes too: interpolated strings land in attribute values
  // (title="...") where an unescaped quote breaks out of the attribute.
  return String(s).replace(/&/g, '&amp;').replace(/</g, '&lt;').replace(/>/g, '&gt;')
    .replace(/"/g, '&quot;').replace(/'/g, '&#39;');
}
function burnCell(ws, name) {
  for (var i = 0; i < ws.length; i++) {
    if (ws[i].window === name) return ws[i].burn.toFixed(2);
  }
  return '';
}
function mb(n) { return (n / 1048576).toFixed(2) + ' MB'; }
function refresh() {
  Promise.all([
    fetch('/stats').then(function (r) { return r.json(); }),
    fetch('/workload?top=15').then(function (r) { return r.json(); }),
    fetch('/slo').then(function (r) { return r.json(); }),
    fetch('/advisor').then(function (r) { return r.json(); })
  ]).then(function (res) {
    var st = res[0], wl = res[1], sl = res[2], ad = res[3];
    document.getElementById('err').textContent = '';
    var paging = 0;
    (sl.objectives || []).forEach(function (o) { if (o.state === 'page') paging++; });
    document.getElementById('cards').innerHTML =
      card('epoch', st.epoch) + card('triples', st.triples) +
      card('levels', st.levels) + card('sub-partitions', st.sub_partitions) +
      card('inflight', st.inflight_queries) + card('queued', st.queued_queries) +
      card('pinned epochs', st.pinned_epochs) + card('dropped fps', wl.dropped) +
      card('SLOs paging', paging);
    var dict = st.dict || {};
    document.getElementById('dictcards').innerHTML =
      card('dict entries', dict.entries || 0) +
      card('dict resident', mb(dict.resident_bytes || 0)) +
      card('dict build ms', ((dict.build_seconds || 0) * 1000).toFixed(2)) +
      card('cached sub-parts', dict.cache_entries || 0) +
      card('cache resident', mb(dict.cache_bytes || 0)) +
      card('cache raw equiv', mb(dict.cache_raw_bytes || 0)) +
      card('decodes', dict.decodes || 0);
    var sloRows = (sl.objectives || []).map(function (o) {
      var ws = o.windows || [];
      var bad6h = '';
      for (var i = 0; i < ws.length; i++) { if (ws[i].window === '6h') bad6h = ws[i].bad + '/' + (ws[i].good + ws[i].bad); }
      return '<tr><td class="c">' + esc(o.name) + '</td>' +
        '<td class="c">' + esc(o.description) + '</td>' +
        '<td>' + (o.target * 100).toFixed(1) + '%</td>' +
        '<td class="c slo-' + esc(o.state) + '">' + esc(o.state) + '</td>' +
        '<td>' + burnCell(ws, '5m') + '</td><td>' + burnCell(ws, '1h') + '</td>' +
        '<td>' + burnCell(ws, '30m') + '</td><td>' + burnCell(ws, '6h') + '</td>' +
        '<td>' + bad6h + '</td></tr>';
    });
    document.querySelector('#slo tbody').innerHTML = sloRows.join('');
    var adv = (ad && ad.advice) || {};
    document.getElementById('advcards').innerHTML =
      card('hot queries', (adv.hot || []).length) +
      card('cold levels', (adv.cold_levels || []).length) +
      card('merges', (adv.merges || []).length) +
      card('join reductions', (adv.joins || []).length) +
      card('p95 steps→1st', (adv.p95_steps_to_first_before || 0).toFixed(0)) +
      card('est. after', (adv.p95_steps_to_first_after || 0).toFixed(0)) +
      card('applied epochs', (ad && ad.applied) || 0);
    var detail = [];
    (adv.merges || []).forEach(function (m) { detail.push('L' + m.from + '→L' + m.into); });
    (adv.joins || []).forEach(function (j) { detail.push(j.join + ' (−' + j.pruned_subparts + ' subparts)'); });
    document.getElementById('advdetail').textContent = detail.length
      ? 'recommends: ' + detail.join(', ') + (ad.computed_at ? '  ·  analyzed ' + ad.computed_at : '')
      : 'no layout changes recommended' + (ad.computed_at ? '  ·  analyzed ' + ad.computed_at : '');
    var rows = (wl.fingerprints || []).map(function (f) {
      return '<tr><td class="c">' + esc(f.fingerprint) + '</td>' +
        '<td class="c" title="' + esc(f.canonical) + '">' + esc(f.canonical) + '</td>' +
        '<td>' + esc(f.shape) + '</td><td>' + f.count + '</td>' +
        '<td>' + f.mean_ms.toFixed(2) + '</td><td>' + f.p95_ms.toFixed(2) + '</td>' +
        '<td>' + (f.errors || 0) + '</td><td>' + (f.degraded || 0) + '</td>' +
        '<td>' + (f.mean_steps_to_first || 0).toFixed(1) + '</td>' +
        '<td>' + spark(f.coverage) + '</td></tr>';
    });
    document.querySelector('#wl tbody').innerHTML = rows.join('');
  }).catch(function (e) {
    document.getElementById('err').textContent = '(' + e + ')';
  });
  // /resources may live on the admin listener (-admin-addr); fetch it
  // separately and tolerate its absence instead of failing the page.
  fetch('/resources?top=10').then(function (r) { return r.ok ? r.json() : null; }).then(function (rs) {
    if (!rs) {
      document.getElementById('resnote').textContent = 'resource ledger unavailable here (served on the admin listener)';
      return;
    }
    document.getElementById('resnote').textContent = '';
    var rows = (rs.top || []).map(function (f) {
      return '<tr><td class="c" title="' + esc(f.canonical || '') + '">' + esc(f.fingerprint) + '</td>' +
        '<td>' + (f.task_seconds || 0).toFixed(3) + '</td>' +
        '<td>' + (f.rows_loaded || 0) + '</td>' +
        '<td>' + mb(f.bytes_decoded || 0) + '</td>' +
        '<td>' + mb(f.storage_bytes_read || 0) + '</td>' +
        '<td>' + mb(f.cache_bytes_pinned || 0) + '</td>' +
        '<td>' + (f.dict_decodes || 0) + '</td>' +
        '<td>' + (f.peak_relation_rows || 0) + '</td></tr>';
    });
    document.querySelector('#res tbody').innerHTML = rows.join('');
  }).catch(function () {});
}
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
`
