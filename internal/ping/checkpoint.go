// Durable PQA checkpoints: hibernating a progressive run after a
// completed step and resuming it later with the exact same final answer
// set as an uninterrupted run.
//
// Why a step boundary is the right cut. A PQA step evaluates the query
// on the accumulated slice C and delivers a sound subset of the exact
// answer (Lemma 4.4). Everything the next step needs is a deterministic
// function of (layout snapshot, strategy, query, C): the slice schedule
// is recomputed identically from the pinned layout, so "resume after
// step k" is exactly "skip the first k scheduled steps and restore C".
// C itself is restored from the checkpoint: the set of loaded (and
// missing) sub-partition keys plus the semi-naive evaluator's
// per-pattern accumulated relations and cached answers. Re-running the
// remaining steps then produces the same per-step answer sets — and the
// final step still evaluates the maximal slice, so Theorem 4.5's
// exactness is preserved.
//
// Exactness across restarts needs one more ingredient: the layout must
// not have changed. Epoch numbers are process-local (a reloaded store
// restarts at epoch 0), so checkpoints record the layout's content
// signature instead; PQAResumeRun refuses to continue onto a different
// signature with ErrSnapshotMismatch and the caller restarts from
// scratch on the current snapshot.
package ping

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/obs/prof"
	"ping/internal/sparql"
)

// ErrSnapshotMismatch reports that the layout a resume would run on does
// not expose the same data as the checkpointed snapshot (the epoch lease
// expired and the data changed, or the resume targets a different
// store). The only sound continuation is a fresh run on the current
// snapshot.
var ErrSnapshotMismatch = errors.New("ping: layout differs from checkpoint snapshot")

// Budget bounds one run segment. Zero fields are unlimited. A budget
// never truncates below one step: each segment makes progress, so a
// client retrying with the returned cursor always terminates.
type Budget struct {
	// MaxSteps caps the progressive steps this segment executes.
	MaxSteps int
	// MaxLoadedRows caps the vertical-partition rows this segment loads.
	// The planner applies it predictively, using the layout's exact
	// per-sub-partition row counts (the same estimates ping.Plan
	// reports): the segment executes the longest schedule prefix whose
	// predicted cumulative rows fit — coverage is monotone in steps, so
	// the longest affordable prefix is the predicted-coverage-maximal
	// one.
	MaxLoadedRows int64
	// Deadline caps the segment's wall-clock time, checked at step
	// boundaries (a started step always completes; mid-step aborts would
	// discard sound work).
	Deadline time.Duration
}

// IsZero reports whether the budget constrains nothing.
func (b Budget) IsZero() bool {
	return b.MaxSteps <= 0 && b.MaxLoadedRows <= 0 && b.Deadline <= 0
}

// StopReason says why a run segment ended.
type StopReason string

const (
	// StopCompleted: the run delivered its final step: the maximal
	// slice, or the step that filled the query's LIMIT.
	StopCompleted StopReason = "completed"
	// StopCallback: the step callback returned false.
	StopCallback StopReason = "callback"
	// StopBudgetSteps / StopBudgetRows / StopDeadline: the segment hit a
	// Budget bound; the RunStatus carries a resumable checkpoint.
	StopBudgetSteps StopReason = "budget-steps"
	StopBudgetRows  StopReason = "budget-rows"
	StopDeadline    StopReason = "deadline"
)

// RunStatus describes how a PQA segment ended.
type RunStatus struct {
	// Done reports that the final step ran: the last delivered answer
	// set is the run's final answer (exact unless degraded).
	Done bool
	// Reason says what stopped the segment.
	Reason StopReason
	// PlannedSteps is the full schedule length; StepsDone counts the
	// completed steps across the whole lineage (not just this segment).
	PlannedSteps int
	StepsDone    int
	// Checkpoint resumes the run after the last completed step. Nil when
	// Done, or when the segment completed zero steps.
	Checkpoint *Checkpoint
}

// Checkpoint is the durable state of a PQA interrupted at a step
// boundary. It is pure data (serialized by internal/cursor); a
// checkpoint plus the matching layout snapshot fully determines the rest
// of the run.
type Checkpoint struct {
	// Query is the query text (re-parsed on resume).
	Query string
	// Strategy and FailurePolicy pin the schedule the original run used;
	// resuming under a different strategy would renumber the steps.
	Strategy      SliceStrategy
	FailurePolicy FailurePolicy
	// Epoch is the pinned epoch at checkpoint time (process-local, for
	// display); LayoutSig is the snapshot's content signature, the
	// cross-restart identity resume validates against.
	Epoch     uint64
	LayoutSig uint64
	// DictLen/DictSig identify the dictionary prefix the checkpoint's ID
	// relations were encoded against. The layout signature only covers the
	// sub-partition inventory (keys, generations, row counts), so two
	// different datasets with the same shape can collide on it — the
	// dictionary signature pins the actual terms. Resume accepts a
	// dictionary that *extends* the prefix (append-only growth keeps old
	// IDs valid) and refuses anything else: checkpointed IDs must never be
	// decoded through a different dictionary.
	DictLen int
	DictSig uint64
	// StepsDone counts completed steps; resume skips that schedule
	// prefix.
	StepsDone int
	// LoadedKeys lists the sub-partitions in the accumulator, in load
	// order; MissingKeys the ones skipped as unreadable (Degrade).
	LoadedKeys  []hpart.SubPartKey
	MissingKeys []hpart.SubPartKey
	// RowsLoadedCum, ElapsedCum and PrevAnswers restore the run's
	// cumulative accounting.
	RowsLoadedCum int64
	ElapsedCum    time.Duration
	PrevAnswers   int
	// PatternRels holds the semi-naive evaluator's accumulated
	// per-pattern relations (triple patterns first, then paths) and
	// Answers its cached distinct answers — restoring them makes resume
	// O(path data re-read) instead of O(re-evaluate everything).
	PatternRels []*engine.Relation
	Answers     *engine.Relation
}

// runMode is the data that tells the three kinds of run apart: the pprof
// stage label, the root span name, and the mode label of
// ping_queries_total and ping_query_seconds.
type runMode struct{ stage, span, label string }

var (
	modePQA    = runMode{stage: "pqa", span: "pqa", label: "pqa"}
	modeResume = runMode{stage: "resume", span: "pqa", label: "pqa"}
	// modeEQA runs one step over the maximal slice (Algorithm 3).
	modeEQA = runMode{stage: "eqa", span: "eqa", label: "eqa"}
)

// runConfig parameterizes one segment of the core runner.
type runConfig struct {
	mode runMode
	// cp, when non-nil, resumes the run after cp.StepsDone steps.
	cp *Checkpoint
	// budget bounds the segment.
	budget Budget
	// checkpoints makes the runner build a Checkpoint after every step
	// (cheap — relation snapshots are capped-slice headers — but skipped
	// entirely for plain PQA calls).
	checkpoints bool
}

// PQARunOn executes a (possibly budget-bounded) PQA on an explicit
// layout snapshot — typically one held by an hpart lease, so a pause can
// hand the same pinned snapshot to a later resume. A nil lay pins the
// processor's current snapshot for the duration of the call. fn receives
// every step plus the checkpoint that resumes after it. The returned
// status says whether the run completed or paused, and on a pause
// carries the resumable checkpoint.
func (p *Processor) PQARunOn(ctx context.Context, lay *hpart.Layout, q *sparql.Query, budget Budget, fn func(StepResult, *Checkpoint) bool) (*RunStatus, error) {
	if lay == nil {
		var release func()
		lay, release = p.store.Pin()
		defer release()
	}
	return p.runPQA(ctx, lay, q, runConfig{mode: modePQA, budget: budget, checkpoints: true}, fn)
}

// PQAResumeRun continues a checkpointed run on lay, which must be the
// snapshot the checkpoint was taken against (same content signature) —
// typically obtained from an hpart lease. A nil lay pins the processor's
// current snapshot. It returns ErrSnapshotMismatch when the data
// changed; the caller should then start a fresh PQARunOn on the current
// snapshot and mark the lineage restarted.
func (p *Processor) PQAResumeRun(ctx context.Context, lay *hpart.Layout, cp *Checkpoint, budget Budget, fn func(StepResult, *Checkpoint) bool) (*RunStatus, error) {
	if cp == nil {
		return nil, fmt.Errorf("ping: nil checkpoint")
	}
	if cp.StepsDone < 1 {
		return nil, fmt.Errorf("ping: checkpoint has no completed steps")
	}
	if lay == nil {
		var release func()
		lay, release = p.store.Pin()
		defer release()
	}
	if lay.Signature() != cp.LayoutSig {
		return nil, ErrSnapshotMismatch
	}
	// The checkpoint's ID relations are only meaningful against the
	// dictionary prefix they were encoded with. A dictionary that merely
	// grew since (a maintainer interned new terms) still decodes every
	// checkpointed ID identically; anything else — shorter, or different
	// content at the same length — is a different dictionary and resuming
	// would silently bind IDs to the wrong terms.
	if cp.DictLen > 0 || cp.DictSig != 0 {
		dv := lay.DictView()
		if cp.DictLen > dv.Len() || lay.Dict.PrefixSig(cp.DictLen) != cp.DictSig {
			return nil, fmt.Errorf("ping: dictionary differs from checkpoint prefix: %w", ErrSnapshotMismatch)
		}
	}
	if p.opts.Strategy != cp.Strategy {
		return nil, fmt.Errorf("ping: resume under strategy %v, checkpoint used %v: %w",
			p.opts.Strategy, cp.Strategy, ErrSnapshotMismatch)
	}
	q, err := sparql.Parse(cp.Query)
	if err != nil {
		return nil, fmt.Errorf("ping: checkpoint query: %w", err)
	}
	return p.runPQA(ctx, lay, q, runConfig{mode: modeResume, cp: cp, budget: budget, checkpoints: true}, fn)
}

// runPQA stamps the query's pprof labels (query_fp from the context,
// trace_id, stage pqa/resume/eqa) onto the executing goroutine — dataflow
// workers spawned under it inherit them, so CPU profile samples
// attribute to the fingerprint — then runs the step loop.
func (p *Processor) runPQA(ctx context.Context, lay *hpart.Layout, q *sparql.Query, rc runConfig, fn func(StepResult, *Checkpoint) bool) (status *RunStatus, err error) {
	ctx = ensureQueryFP(ctx, q)
	prof.Do(ctx, rc.mode.stage, func(ctx context.Context) {
		status, err = p.runSteps(ctx, lay, q, rc, fn)
	})
	return status, err
}

// runSteps is the one step loop behind every entry point: schedule
// (or re-derive) the slice steps on the pinned snapshot — for EQA a
// single step over the maximal slice — restore the accumulator if
// resuming, then execute steps until the schedule, the budget, or the
// callback says stop.
func (p *Processor) runSteps(ctx context.Context, lay *hpart.Layout, q *sparql.Query, rc runConfig, fn func(StepResult, *Checkpoint) bool) (*RunStatus, error) {
	if len(q.Patterns)+len(q.Paths) == 0 {
		return nil, fmt.Errorf("ping: query has no patterns")
	}
	p.met.epoch.Set(float64(lay.Epoch()))
	p.setDictGauges(lay)
	defer p.setDictGauges(lay)
	p.met.inflight.Add(1)
	defer p.met.inflight.Add(-1)

	status := &RunStatus{Done: true, Reason: StopCompleted}
	hl := p.querySlices(lay, q)
	hlPaths := p.queryPathSlices(lay, q)
	for _, candidates := range hl {
		if len(candidates) == 0 {
			// Unsafe on every slice: no answers anywhere (soundness of
			// the index: absent symbols cannot match).
			return status, nil
		}
	}
	for _, candidates := range hlPaths {
		if len(candidates) == 0 {
			return status, nil
		}
	}

	all := append(append([][]hpart.SubPartKey{}, hl...), hlPaths...)
	var steps []scheduledStep
	var err error
	if rc.mode == modeEQA {
		steps = maximalSlice(all)
	} else if steps, err = p.sliceSchedule(lay, all); err != nil {
		return nil, err
	}
	status.PlannedSteps = len(steps)
	startStep := 0
	if rc.cp != nil {
		// The schedule is deterministic in (layout, strategy, query), so
		// the interrupted run's steps 1..StepsDone are exactly our
		// prefix.
		startStep = rc.cp.StepsDone
		if startStep > len(steps) {
			return nil, fmt.Errorf("ping: checkpoint at step %d of a %d-step schedule: %w",
				startStep, len(steps), ErrSnapshotMismatch)
		}
		p.met.resumes.Inc()
	}
	status.StepsDone = startStep

	ctx, qspan := obs.StartSpan(ctx, rc.mode.span)
	defer qspan.End()
	qspan.SetAttr("strategy", p.opts.Strategy.String())
	qspan.SetAttr("patterns", len(q.Patterns))
	qspan.SetAttr("paths", len(q.Paths))
	qspan.SetAttr("planned_steps", len(steps))
	qspan.SetAttr("epoch", lay.Epoch())
	if rc.cp != nil {
		qspan.SetAttr("resumed", true)
		qspan.SetAttr("start_step", startStep)
	}

	detach := p.ctx.AttachContext(ctx)
	defer detach()

	p.met.queries[rc.mode.label].Inc()
	state, err := newEvalState(p, lay, q, hl, hlPaths)
	if err != nil {
		return nil, err
	}
	if rc.cp != nil {
		if err := state.restore(ctx, rc.cp); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	tid := obs.TraceIDFromContext(ctx)
	defer func() { p.met.querySeconds[rc.mode.label].ObserveExemplar(time.Since(start).Seconds(), tid) }()

	// Cumulative elapsed time continues across segments.
	var elapsedBase time.Duration
	if rc.cp != nil {
		elapsedBase = rc.cp.ElapsedCum
	}

	// Step spans collect a "coverage" attribute only once the run is done:
	// coverage is relative to the final answer count, which the early steps
	// cannot know yet. The rule mirrors Result.Coverage exactly (final
	// cardinality zero means coverage 1 everywhere).
	var (
		stepSpans   []*obs.Span
		stepAnswers []int
	)
	setCoverage := func() {
		if len(stepAnswers) == 0 {
			return
		}
		final := stepAnswers[len(stepAnswers)-1]
		for i, sp := range stepSpans {
			cov := 1.0
			if final > 0 {
				cov = float64(stepAnswers[i]) / float64(final)
			}
			sp.SetAttr("coverage", cov)
		}
	}

	// predictedRows prices a step before running it, from the layout's
	// exact per-sub-partition row counts (what ping.Plan reports).
	predictedRows := func(s scheduledStep) int64 {
		var n int64
		for _, k := range s.newKeys {
			if !state.loadedSet[k] && !state.missingSet[k] {
				n += int64(lay.SubPartRows[k])
			}
		}
		return n
	}
	pause := func(reason StopReason, cp *Checkpoint) {
		status.Done = false
		status.Reason = reason
		status.Checkpoint = cp
		p.met.budgetPauses.Inc()
	}

	var (
		lastCp   *Checkpoint
		segRows  int64
		executed int
		led      = prof.LedgerFrom(ctx)
	)
	for i := startStep; i < len(steps); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Budget checks run at step boundaries, never before the first
		// step of a segment (progress guarantee).
		if executed > 0 && !rc.budget.IsZero() {
			if rc.budget.MaxSteps > 0 && executed >= rc.budget.MaxSteps {
				pause(StopBudgetSteps, lastCp)
				break
			}
			if rc.budget.Deadline > 0 && time.Since(start) >= rc.budget.Deadline {
				pause(StopDeadline, lastCp)
				break
			}
			if rc.budget.MaxLoadedRows > 0 && segRows+predictedRows(steps[i]) > rc.budget.MaxLoadedRows {
				pause(StopBudgetRows, lastCp)
				break
			}
		}
		step := steps[i]
		sctx, ss := obs.StartSpan(ctx, "slice")
		sdetach := p.ctx.AttachContext(sctx)
		state.span = ss
		prevMissing := len(state.missing)
		t0 := time.Now()
		err := state.load(sctx, step.newKeys)
		var answers *engine.Relation
		if err == nil {
			answers, err = state.evaluate()
		}
		state.span = nil
		sdetach()
		if err != nil {
			ss.SetAttr("error", err.Error())
			ss.End()
			return nil, err
		}
		// A run cancelled during the step ends without delivering it.
		if err := ctx.Err(); err != nil {
			ss.End()
			return nil, err
		}
		el := time.Since(t0)
		// The step's load + evaluate time is the query's CPU in the
		// ledger (the only CPU attribution, see prof.Snapshot.TaskNanos).
		led.AddTask(el)
		cum := elapsedBase + time.Since(start)
		sr := StepResult{
			Step:            i + 1,
			MaxLevel:        step.maxLevel,
			NewSubParts:     step.newKeys,
			RowsLoadedStep:  state.rowsLoadedStep,
			RowsLoadedCum:   state.rowsLoadedCum,
			Answers:         answers,
			NewAnswers:      answers.Card() - state.prevAnswers,
			Elapsed:         el,
			ElapsedCum:      cum,
			CacheHits:       state.cacheHitsStep,
			CacheMisses:     state.cacheMissesStep,
			Degraded:        len(state.missing) > 0,
			MissingSubParts: append([]hpart.SubPartKey(nil), state.missing...),
			Epoch:           lay.Epoch(),
			stats:           state.lastStats,
		}
		ss.SetAttr("step", sr.Step)
		ss.SetAttr("max_level", sr.MaxLevel)
		ss.SetAttr("new_subparts", len(sr.NewSubParts))
		ss.SetAttr("rows_loaded_step", sr.RowsLoadedStep)
		ss.SetAttr("rows_loaded_cum", sr.RowsLoadedCum)
		ss.SetAttr("answers", answers.Card())
		ss.SetAttr("new_answers", sr.NewAnswers)
		ss.SetAttr("degraded", sr.Degraded)
		if n := len(sr.MissingSubParts); n > 0 {
			ss.SetAttr("missing_subparts", n)
		}
		if state.cacheHitsStep > 0 || state.cacheMissesStep > 0 {
			ss.SetAttr("cache_hits", state.cacheHitsStep)
			ss.SetAttr("cache_misses", state.cacheMissesStep)
		}
		ss.End()
		stepSpans = append(stepSpans, ss)
		stepAnswers = append(stepAnswers, answers.Card())

		missedNow := len(state.missing) - prevMissing
		p.met.steps.Inc()
		p.met.rowsLoaded.Add(sr.RowsLoadedStep)
		p.met.subparts.Add(int64(len(step.newKeys) - missedNow))
		p.met.missingSubparts.Add(int64(missedNow))
		if sr.Degraded {
			p.met.degradedSteps.Inc()
		}
		p.met.stepSeconds.ObserveExemplar(el.Seconds(), tid)

		executed++
		segRows += sr.RowsLoadedStep
		status.StepsDone = i + 1
		state.prevAnswers = answers.Card()
		if rc.checkpoints {
			lastCp = state.checkpoint(lay, sr)
		}
		// LIMIT caps the cumulative answers, and the parser has no ORDER
		// BY or OFFSET, so once the cap is reached these answers are the
		// final ones: no later step can change them.
		capped := q.Limit > 0 && answers.Card() >= q.Limit
		if !fn(sr, lastCp) {
			if i+1 < len(steps) && !capped {
				status.Done = false
				status.Reason = StopCallback
				status.Checkpoint = lastCp
			}
			setCoverage()
			return status, nil
		}
		if capped {
			break
		}
	}
	setCoverage()
	if status.Done {
		status.Checkpoint = nil
	}
	return status, nil
}

// checkpoint freezes the run's state after a completed step. Relation
// snapshots are capped-slice headers over the evaluator's storage, so
// this is O(loaded keys), not O(data); the expensive serialization
// happens only if the cursor actually hibernates to disk.
func (st *evalState) checkpoint(lay *hpart.Layout, sr StepResult) *Checkpoint {
	if st.queryText == "" {
		// Rendered once per run, not once per step.
		st.queryText = st.q.String()
	}
	dv := lay.DictView()
	cp := &Checkpoint{
		Query:         st.queryText,
		Strategy:      st.p.opts.Strategy,
		FailurePolicy: st.p.opts.FailurePolicy,
		Epoch:         lay.Epoch(),
		LayoutSig:     lay.Signature(),
		DictLen:       dv.Len(),
		DictSig:       dv.Sig(),
		StepsDone:     sr.Step,
		LoadedKeys:    append([]hpart.SubPartKey(nil), st.loaded...),
		MissingKeys:   append([]hpart.SubPartKey(nil), st.missing...),
		RowsLoadedCum: st.rowsLoadedCum,
		ElapsedCum:    sr.ElapsedCum,
		PrevAnswers:   sr.Answers.Card(),
	}
	cp.PatternRels, cp.Answers = st.inc.Snapshot()
	return cp
}

// restore rebuilds the accumulator C from a checkpoint. The checkpoint
// carries the per-pattern relations, so only the data path patterns
// recompute over (their accumulated groups) is re-read from storage, in
// load order — the order the original run fed those groups in.
func (st *evalState) restore(ctx context.Context, cp *Checkpoint) error {
	wantRels := len(st.q.Patterns) + len(st.q.Paths)
	if len(cp.PatternRels) != wantRels {
		return fmt.Errorf("ping: checkpoint has %d relations for %d patterns: %w",
			len(cp.PatternRels), wantRels, ErrSnapshotMismatch)
	}
	for _, k := range cp.MissingKeys {
		if !st.missingSet[k] {
			st.missingSet[k] = true
			st.missing = append(st.missing, k)
		}
	}
	var toRead []hpart.SubPartKey
	for _, k := range cp.LoadedKeys {
		if st.loadedSet[k] {
			continue
		}
		st.loadedSet[k] = true
		st.loaded = append(st.loaded, k)
		for _, set := range st.hlPathSet {
			if set[k] {
				toRead = append(toRead, k)
				break
			}
		}
	}

	pathGroups := make([][]engine.PropGroup, len(st.q.Paths))
	if len(toRead) > 0 {
		results, err := st.readAll(ctx, toRead)
		if err != nil {
			return err
		}
		for i, r := range results {
			k := toRead[i]
			if r.err != nil {
				// The data vanished between segments. Under Degrade, drop
				// it from the accumulator (the resumed run is degraded
				// but still sound); under FailFast, abort the resume.
				if st.p.opts.FailurePolicy == Degrade {
					delete(st.loadedSet, k)
					st.dropLoaded(k)
					if !st.missingSet[k] {
						st.missingSet[k] = true
						st.missing = append(st.missing, k)
					}
					continue
				}
				return r.err
			}
			for pi, set := range st.hlPathSet {
				if set[k] {
					pathGroups[pi] = append(pathGroups[pi], engine.PropGroup{Prop: k.Prop, Rows: r.block})
				}
			}
		}
	}
	if err := st.inc.Restore(cp.PatternRels, pathGroups, cp.Answers); err != nil {
		return fmt.Errorf("%v: %w", err, ErrSnapshotMismatch)
	}
	// Restore reads refill the accumulator; they do not re-count as data
	// newly contributed to the run, so the resumed segment's cumulative
	// accounting continues where the original left off.
	st.rowsLoadedCum = cp.RowsLoadedCum
	st.prevAnswers = cp.PrevAnswers
	return nil
}

// dropLoaded removes one key from the load-order list (rare: a restore
// read failed under Degrade).
func (st *evalState) dropLoaded(k hpart.SubPartKey) {
	for i, have := range st.loaded {
		if have == k {
			st.loaded = append(st.loaded[:i], st.loaded[i+1:]...)
			return
		}
	}
}
