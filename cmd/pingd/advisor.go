package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ping/internal/advisor"
	"ping/internal/hpart"
)

// adviserState is the server's online-advisor slot: the most recent
// recommendation, guarded separately from maintMu so /advisor GETs never
// wait behind an update batch.
type adviserState struct {
	mu       sync.Mutex
	latest   *advisor.Advice
	computed time.Time
	applied  int64 // epochs published by advisor applies
	lastErr  string
}

// advise recomputes a recommendation from the live workload profile
// against the current epoch and caches it as the latest.
func (s *server) advise() (*advisor.Advice, error) {
	lay := s.store.Current()
	adv, err := advisor.Analyze(lay, s.profiler.Snapshot(), advisor.Config{Strategy: s.cfg.Strategy})
	s.adviser.mu.Lock()
	defer s.adviser.mu.Unlock()
	if err != nil {
		s.adviser.lastErr = err.Error()
		return nil, err
	}
	s.adviser.latest = adv
	s.adviser.computed = time.Now()
	s.adviser.lastErr = ""
	return adv, nil
}

// applyAdvice installs a recommendation through the single-writer
// maintainer, exactly like an update batch: one copy-on-write epoch,
// dictionary and manifest persisted afterwards. Stale advice (computed
// against an older epoch's signature) is rejected — the caller should
// re-advise first.
func (s *server) applyAdvice(adv *advisor.Advice) error {
	if adv.Empty() {
		return nil
	}
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	cur := s.store.Current()
	if sig := fmt.Sprintf("%016x", cur.Signature()); sig != adv.Signature {
		return fmt.Errorf("advice is stale: analyzed signature %s, store is now %s", adv.Signature, sig)
	}
	if s.maint == nil {
		m, err := hpart.NewStoreMaintainer(s.store)
		if err != nil {
			return err
		}
		s.maint = m
	}
	if err := adv.Apply(s.maint); err != nil {
		// The failed epoch was never published; rebuild the maintainer's
		// bookkeeping on the next writer, as handleUpdate does.
		s.maint = nil
		return err
	}
	s.updates.Inc()
	s.adviser.mu.Lock()
	s.adviser.applied++
	s.adviser.mu.Unlock()
	if s.cfg.Persist != nil {
		if err := s.store.Current().SaveDict(); err != nil {
			return err
		}
		if err := s.cfg.Persist.SaveManifest(); err != nil {
			return err
		}
	}
	return nil
}

// advisorResponse is the /advisor document: the latest recommendation
// plus the apply bookkeeping.
type advisorResponse struct {
	Advice *advisor.Advice `json:"advice"`
	// ComputedAt is when Advice was analyzed (RFC 3339; empty when no
	// analysis has run yet).
	ComputedAt string `json:"computed_at,omitempty"`
	// Applied counts advisor-published epochs since startup.
	Applied int64 `json:"applied"`
	// Error carries the last analysis failure, if the latest run failed.
	Error string `json:"error,omitempty"`
}

// handleAdvisor serves the online advisor. GET returns the latest
// recommendation, analyzing on first use; POST re-analyzes, and with
// ?apply=1 also installs the result as a new epoch.
func (s *server) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.adviser.mu.Lock()
		cached := s.adviser.latest
		s.adviser.mu.Unlock()
		if cached == nil {
			if _, err := s.advise(); err != nil {
				http.Error(w, fmt.Sprintf("advise: %v", err), http.StatusInternalServerError)
				return
			}
		}
	case http.MethodPost:
		adv, err := s.advise()
		if err != nil {
			http.Error(w, fmt.Sprintf("advise: %v", err), http.StatusInternalServerError)
			return
		}
		if r.URL.Query().Get("apply") == "1" {
			if err := s.applyAdvice(adv); err != nil {
				http.Error(w, fmt.Sprintf("apply: %v", err), http.StatusInternalServerError)
				return
			}
		}
	default:
		http.Error(w, "GET the latest advice, or POST (?apply=1) to re-analyze", http.StatusMethodNotAllowed)
		return
	}

	s.adviser.mu.Lock()
	resp := advisorResponse{
		Advice:  s.adviser.latest,
		Applied: s.adviser.applied,
		Error:   s.adviser.lastErr,
	}
	if !s.adviser.computed.IsZero() {
		resp.ComputedAt = s.adviser.computed.UTC().Format(time.RFC3339)
	}
	s.adviser.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// startAdvisor runs the online advise loop: every interval, re-analyze
// the live workload; when apply is set and the advice recommends a
// change, publish it as a new epoch. The returned function stops the
// loop. Analysis failures are logged and retried next tick — the loop
// must outlive a transient bad snapshot.
func (s *server) startAdvisor(interval time.Duration, apply bool, logf func(format string, args ...any)) func() {
	if interval <= 0 {
		return func() {}
	}
	return every(interval, func() {
		adv, err := s.advise()
		if err != nil {
			logf("advisor: analyze: %v", err)
			return
		}
		if !apply || adv.Empty() {
			return
		}
		if err := s.applyAdvice(adv); err != nil {
			logf("advisor: apply: %v", err)
			return
		}
		logf("advisor: applied %d merge(s), %d join reduction(s); epoch %d",
			len(adv.Merges), len(adv.Joins), s.store.Current().Epoch())
	})
}
