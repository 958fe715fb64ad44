// Package harness runs the paper's evaluation: it expands (benchmark ×
// configuration) grids into campaign cells, executes them through the
// sharded campaign engine (internal/campaign), and regenerates every
// table and figure of the paper (DESIGN.md §3 maps each experiment to the
// module that implements it).
//
// Session is a thin view over the campaign store: Run and RunAll resolve
// cells through the engine — which memoizes in-process, executes on a
// bounded work-stealing pool, and (when CacheDir is set) persists every
// finished cell so a later session resumes without recomputation.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/sample"
	"largewindow/internal/stats"
	"largewindow/internal/telemetry"
	_ "largewindow/internal/trace" // register trace: and synth: workload schemes
	"largewindow/internal/workload"
)

// Options controls a harness session.
type Options struct {
	// MaxInstr is the committed-instruction budget per run (the paper
	// simulates fixed 100M-instruction windows; we default to 300K on
	// scaled data sets — see EXPERIMENTS.md).
	MaxInstr uint64
	// MaxCycles bounds runaway runs.
	MaxCycles int64
	// Scale selects kernel working-set sizing.
	Scale workload.Scale
	// Benchmarks restricts the workload set (nil = every registry
	// kernel). Entries are workload refs resolved through
	// workload.ParseRef: bare kernel names ("gcc"), explicit
	// "bench:gcc", recorded traces ("trace:path.wtr"), or synthetic
	// specs ("synth:mlp=4,miss=0.1").
	Benchmarks []string
	// Parallel is the number of concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// Log receives progress lines (nil = quiet).
	Log io.Writer
	// RunDeadline bounds each simulation's wall-clock time; a run that
	// exceeds it fails with a transient SimError and is retried under the
	// session's Retry policy. 0 means no deadline.
	RunDeadline time.Duration
	// Retry configures the cell re-execution policy (budget, backoff,
	// jitter). The zero value retries transient failures once,
	// immediately — the historical behavior. A nil Retry.IsTransient
	// uses the harness classifier (transient SimErrors, minus context
	// cancellation).
	Retry campaign.RetryPolicy
	// Context, when non-nil, is the base context of every simulation the
	// session executes: cancelling it aborts in-flight cells (they fail
	// with a non-retryable cancellation error and are never persisted)
	// and fails all cells not yet started.
	Context context.Context
	// Exec, when non-nil, replaces local execution entirely: every cell
	// the engine decides to run is handed to this function instead of
	// being simulated in-process. It is how `experiments -server` routes
	// a campaign to a remote coordinator. Local-only options (PreRun,
	// TelemetryDir, SkipInstr checkpointing) do not apply to cells a
	// custom Exec runs elsewhere.
	Exec campaign.ExecFunc
	// PreRun, when non-nil, is invoked on each freshly constructed
	// processor before its run starts. It exists for tests (fault
	// injection, tracing hooks); production sessions leave it nil. Note
	// that cache-served cells never construct a processor, so PreRun and
	// CacheDir+Resume do not combine meaningfully.
	PreRun func(p *core.Processor, cfg core.Config, src workload.Source)
	// TelemetryDir, when non-empty, attaches a telemetry collector to
	// every run and writes one JSONL sample series per cell to
	// <dir>/<config>-<bench>.jsonl (the directory is created on demand).
	TelemetryDir string
	// SampleInterval is the telemetry sampling period in cycles
	// (0 = telemetry.DefaultSampleInterval).
	SampleInterval int64
	// CacheDir, when non-empty, persists every finished cell's result as
	// schema-versioned JSON in an on-disk content-addressed store.
	CacheDir string
	// Resume serves cells already present in CacheDir from disk instead
	// of re-executing them. Without Resume the store is write-only and a
	// fresh campaign overwrites old records.
	Resume bool
	// SkipInstr fast-forwards each benchmark's first n instructions on the
	// functional emulator before detailed simulation (0 = fully detailed
	// runs, today's behavior). Checkpoints are content-addressed by
	// (benchmark, scale, skip) only — configuration-independent — so one
	// functional pass is shared by every config cell, single-flighted
	// through the session's checkpoint cache and persisted under
	// CacheDir/ckpt when a cache directory is configured.
	SkipInstr uint64
	// Sampling, when non-nil, runs every cell as a SMARTS-style sampled
	// simulation under this plan (internal/sample): the functional
	// emulator carries each benchmark between many short detailed
	// windows, and the cell's IPC becomes the mean of the window IPCs
	// with a 95% confidence interval. Sampled cells ignore SkipInstr,
	// MaxInstr, PreRun, and TelemetryDir — the plan defines the simulated
	// region, and the detailed core is recreated per interval.
	Sampling *sample.Plan
}

func (o Options) withDefaults() Options {
	if o.MaxInstr == 0 {
		o.MaxInstr = 300_000
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 100_000_000
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result is the outcome of one simulation run. A failed run has Err set
// and zero metrics; failed cells stay in the session's failure list so a
// sweep's summary can name them.
type Result struct {
	Bench   string
	Suite   workload.Suite
	Config  string
	IPC     float64
	Stats   core.Stats
	DL1Miss float64 // data-cache miss ratio (loads+stores)
	L2Local float64 // unified L2 local miss ratio
	BrAcc   float64 // conditional-branch direction accuracy
	Err     error   // non-nil: the cell failed (SimError or panic)

	// Sampled-run statistics, set only when the cell ran under a sampling
	// plan. IPC above is then the sampled point estimate; IPCCI95 is the
	// Student-t 95% confidence half-width around it.
	Sampling  *sample.Plan
	Intervals int
	IPCStdDev float64
	IPCCI95   float64
}

// viewCell is the session's once-per-cell view over the engine: the
// sync.Once guarantees one Record→Result conversion (so every caller
// sees the same *Result pointer) and one failure-list entry, even under
// concurrent Run calls. Successes and failures alike are memoized — a
// crashed cell is not silently re-run by the next experiment needing it.
type viewCell struct {
	once sync.Once
	res  *Result
	err  error
}

// Session runs and memoizes simulations as a view over a campaign
// engine. Construction never fails fatally: an unusable cache directory
// degrades to an in-process-only session with the error recorded in
// StoreErr.
type Session struct {
	opt   Options
	eng   *campaign.Engine
	store *campaign.Store

	// ckpts is the shared checkpoint cache, opened by the first executed
	// cell that skips (ckptOnce): service workers lease cells with their
	// own skip windows, so the session's own SkipInstr cannot tell.
	ckptOnce sync.Once
	ckpts    *campaign.Checkpoints

	mu       sync.Mutex
	view     map[string]*viewCell
	failures []*Result
	storeErr error

	// progLen memoizes measured program lengths ("identity/scale" →
	// uint64) so auto-period sampling plans pay one sizing pass per
	// workload, not one per cell (a Fig.4-style sweep runs several
	// configs per kernel).
	progLen sync.Map

	// sources memoizes resolved workload refs ("trace:..." → Source) so
	// a campaign of N cells over one trace file decodes it once, not N
	// times.
	sources sync.Map
}

// NewSession creates a harness session. When opt.CacheDir is set, the
// session opens (creating if needed) the persistent result store there;
// a store that cannot be opened is reported via StoreErr and the session
// falls back to in-process memoization only.
func NewSession(opt Options) *Session {
	opt = opt.withDefaults()
	s := &Session{
		opt:  opt,
		view: make(map[string]*viewCell),
	}
	if opt.CacheDir != "" {
		store, err := campaign.NewStore(opt.CacheDir)
		if err != nil {
			s.storeErr = err
			if opt.Log != nil {
				fmt.Fprintf(opt.Log, "  cache disabled: %v\n", err)
			}
		} else {
			s.store = store
		}
	}
	exec := opt.Exec
	if exec == nil {
		exec = func(c campaign.Cell) (*campaign.Record, error) { return s.execute(c, nil) }
	}
	retry := opt.Retry
	if retry.IsTransient == nil {
		retry.IsTransient = Transient
	}
	s.eng = campaign.NewEngine(exec, campaign.Options{
		Workers: opt.Parallel,
		Store:   s.store,
		Resume:  opt.Resume,
		Retry:   retry,
		Log:     opt.Log,
	})
	return s
}

// Campaign exposes the session's engine (progress counters, priming).
func (s *Session) Campaign() *campaign.Engine { return s.eng }

// Store returns the persistent result store, nil when CacheDir is unset
// or unusable.
func (s *Session) Store() *campaign.Store { return s.store }

// StoreErr reports why the persistent store is unavailable (nil when it
// is usable or was never requested).
func (s *Session) StoreErr() error { return s.storeErr }

// cell maps one (configuration × workload) onto its campaign cell under
// the session's budgets. Registry kernels keep the historical cell shape
// (Bench only) so pre-existing campaign stores resume unchanged;
// non-bench sources additionally carry their resolvable ref and their
// content identity, and only the identity enters the cell ID.
func (s *Session) cell(cfg core.Config, src workload.Source) campaign.Cell {
	c := campaign.Cell{
		Config:    cfg,
		Bench:     src.Name(),
		Scale:     s.opt.Scale,
		MaxInstr:  s.opt.MaxInstr,
		MaxCycles: s.opt.MaxCycles,
		SkipInstr: s.opt.SkipInstr,
		Sampling:  s.opt.Sampling,
	}
	if !workload.IsBench(src) {
		c.Workload = src.Ref()
		c.WorkloadID = src.Identity()
	}
	return c
}

// benchmarks resolves the selected workload refs. A nil selection means
// every registry kernel in table order; an explicit selection is
// resolved entry by entry, so a misspelled kernel or malformed synth
// spec fails the sweep instead of being silently dropped.
func (s *Session) benchmarks() ([]workload.Source, error) {
	if len(s.opt.Benchmarks) == 0 {
		all := workload.All()
		out := make([]workload.Source, len(all))
		for i, sp := range all {
			out[i] = sp.Source()
		}
		return out, nil
	}
	out := make([]workload.Source, 0, len(s.opt.Benchmarks))
	for _, ref := range s.opt.Benchmarks {
		src, err := s.resolveRef(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, src)
	}
	return out, nil
}

// resolveRef parses one workload ref, memoized session-wide so a
// campaign of many cells over one trace file decodes it once.
func (s *Session) resolveRef(ref string) (workload.Source, error) {
	if v, ok := s.sources.Load(ref); ok {
		return v.(workload.Source), nil
	}
	src, err := workload.ParseRef(ref)
	if err != nil {
		return nil, err
	}
	v, _ := s.sources.LoadOrStore(ref, src)
	return v.(workload.Source), nil
}

// resultKey names a source in RunAll maps and log lines: registry
// kernels keep their bare name (table order and suite averages match on
// it); external sources use the full ref so a trace of gcc can never
// collide with the gcc kernel itself.
func resultKey(src workload.Source) string {
	if workload.IsBench(src) {
		return src.Name()
	}
	return src.Ref()
}

// Run simulates one workload under one configuration by resolving its
// campaign cell: served from this session's memo, from the persistent
// store (Resume), or executed on the engine's worker pool — single-
// flight in every case, with transient failures retried once before the
// cell is recorded as failed.
func (s *Session) Run(cfg core.Config, src workload.Source) (*Result, error) {
	cell := s.cell(cfg, src)
	id := cell.ID()
	s.mu.Lock()
	vc, ok := s.view[id]
	if !ok {
		vc = &viewCell{}
		s.view[id] = vc
	}
	s.mu.Unlock()

	vc.once.Do(func() {
		rec, err := s.eng.Run(cell)
		if err != nil {
			err = fmt.Errorf("%s on %s: %w", resultKey(src), cfg.Name, err)
			vc.res = &Result{Bench: src.Name(), Suite: src.Suite(), Config: cfg.Name, Err: err}
			vc.err = err
			s.mu.Lock()
			s.failures = append(s.failures, vc.res)
			s.mu.Unlock()
			if s.opt.Log != nil {
				fmt.Fprintf(s.opt.Log, "  FAIL %-10s on %-16s %v\n", resultKey(src), cfg.Name, err)
			}
			return
		}
		vc.res = recordToResult(rec, src)
	})
	return vc.res, vc.err
}

// recordToResult converts a campaign record (fresh or cache-served) into
// the harness view the table generators consume.
func recordToResult(rec *campaign.Record, src workload.Source) *Result {
	suite := src.Suite()
	if parsed, ok := workload.ParseSuite(rec.Suite); ok {
		suite = parsed
	}
	return &Result{
		Bench:     rec.Bench,
		Suite:     suite,
		Config:    rec.Config,
		IPC:       rec.IPC,
		Stats:     rec.Stats,
		DL1Miss:   rec.DL1Miss,
		L2Local:   rec.L2Local,
		BrAcc:     rec.BrAcc,
		Sampling:  rec.Sampling,
		Intervals: rec.Intervals,
		IPCStdDev: rec.IPCStdDev,
		IPCCI95:   rec.IPCCI95,
	}
}

// resolveCell maps a cell back to its workload source. Bench cells go
// through the registry; external cells re-resolve their recorded ref and
// must reproduce the identity the cell was addressed under — a trace
// file that changed on disk is a permanent (non-retryable) failure, not
// a silently different experiment.
func (s *Session) resolveCell(cell campaign.Cell) (workload.Source, error) {
	if cell.Workload == "" {
		spec, ok := workload.Get(cell.Bench)
		if !ok {
			return nil, fmt.Errorf("harness: unknown benchmark %q", cell.Bench)
		}
		return spec.Source(), nil
	}
	src, err := s.resolveRef(cell.Workload)
	if err != nil {
		return nil, fmt.Errorf("harness: resolving workload %q: %w", cell.Workload, err)
	}
	if cell.WorkloadID != "" && src.Identity() != cell.WorkloadID {
		return nil, fmt.Errorf("harness: workload %q resolved to identity %s, but the cell was addressed as %s",
			cell.Workload, src.Identity(), cell.WorkloadID)
	}
	return src, nil
}

// execute runs one cell through Simulate: it resolves and builds the
// workload, picks the cell's region (its shared checkpoint or its
// resolved sampling plan), and turns the outcome into the cell's record.
// onInterval (nil for local campaigns, whose progress feeds the engine
// counters directly) fires once up front with the plan size and again as
// each measured window of a sampled cell completes; service workers
// thread it into their lease heartbeats so the coordinator's ETA model
// sees fractional in-flight progress on long sampled cells.
func (s *Session) execute(cell campaign.Cell, onInterval func(done, planned int)) (*campaign.Record, error) {
	src, err := s.resolveCell(cell)
	if err != nil {
		return nil, err
	}
	cfg := cell.Config
	prog, err := src.Build(cell.Scale)
	if err != nil {
		return nil, fmt.Errorf("harness: building %s: %w", resultKey(src), err)
	}
	r := Region{MaxInstr: cell.MaxInstr, MaxCycles: cell.MaxCycles, Bench: src.Name(), Scale: cell.Scale.String()}
	var closeTelemetry func() error
	if cell.Sampling != nil {
		plan, err := s.resolvePlan(*cell.Sampling, src, cell.Scale, prog)
		if err != nil {
			return nil, err
		}
		r.Sampling = &plan
		s.eng.AddPlannedIntervals(uint64(plan.Intervals))
		if onInterval != nil {
			onInterval(0, plan.Intervals)
		}
		r.Progress = func(done, planned int) {
			s.eng.IntervalDone()
			if onInterval != nil {
				onInterval(done, planned)
			}
		}
	} else {
		if cell.SkipInstr > 0 {
			if r.Checkpoint, err = s.checkpointFor(cell, prog); err != nil {
				return nil, err
			}
		}
		r.Setup = func(p *core.Processor) (err error) {
			if s.opt.PreRun != nil {
				s.opt.PreRun(p, cfg, src)
			}
			closeTelemetry, err = s.attachTelemetry(p, cfg, src)
			return err
		}
	}
	ctx := s.opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if s.opt.RunDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.RunDeadline)
		defer cancel()
	}
	out, err := Simulate(ctx, cfg, prog, r)
	if closeTelemetry != nil {
		if terr := closeTelemetry(); terr != nil && s.opt.Log != nil {
			fmt.Fprintf(s.opt.Log, "  telemetry %s on %s: %v\n", src.Name(), cfg.Name, terr)
		}
	}
	if err != nil {
		return nil, err
	}
	rec := &campaign.Record{
		Config:     cfg.Name,
		Bench:      src.Name(),
		Suite:      src.Suite().String(),
		Scale:      cell.Scale.String(),
		MaxInstr:   cell.MaxInstr,
		MaxCycles:  cell.MaxCycles,
		SkipInstr:  cell.SkipInstr,
		Workload:   cell.Workload,
		WorkloadID: cell.WorkloadID,

		IPC:     out.Stats.IPC,
		Stats:   out.Stats,
		DL1Miss: out.DL1Miss,
		L2Local: out.L2Local,
		BrAcc:   out.BrAcc,

		Sampling:     cell.Sampling,
		Intervals:    len(out.IntervalIPCs),
		IPCStdDev:    out.IPCStdDev,
		IPCCI95:      out.IPCCI95,
		IntervalIPCs: out.IntervalIPCs,
	}
	if s.opt.Log != nil {
		if cell.Sampling != nil {
			fmt.Fprintf(s.opt.Log, "  ran %-10s on %-16s IPC=%.3f ±%.3f (%d intervals) dl1=%.3f l2=%.3f\n",
				src.Name(), cfg.Name, rec.IPC, rec.IPCCI95, rec.Intervals, rec.DL1Miss, rec.L2Local)
		} else {
			fmt.Fprintf(s.opt.Log, "  ran %-10s on %-16s IPC=%.3f cycles=%d dl1=%.3f l2=%.3f\n",
				src.Name(), cfg.Name, rec.IPC, rec.Stats.Cycles, rec.DL1Miss, rec.L2Local)
		}
	}
	return rec, nil
}

// resolvePlan resolves an auto-period plan against the program's
// length, measured once per workload and scale for the whole session (a
// Fig.4-style sweep runs several configs per kernel).
func (s *Session) resolvePlan(plan sample.Plan, src workload.Source, scale workload.Scale, prog *isa.Program) (sample.Plan, error) {
	if plan.Resolved() {
		return plan, nil
	}
	key := src.Identity() + "/" + scale.String()
	v, ok := s.progLen.Load(key)
	if !ok {
		total, err := sample.ProgramLength(prog)
		if err != nil {
			return plan, err
		}
		v, _ = s.progLen.LoadOrStore(key, total)
	}
	return plan.Resolve(v.(uint64)), nil
}

// checkpointFor resolves (building at most once per key, campaign-wide)
// the functional fast-forward checkpoint a cell starts from. The shared
// cache opens with the first cell that skips, persisting under
// CacheDir/ckpt when the session has a store.
func (s *Session) checkpointFor(cell campaign.Cell, prog *isa.Program) (*emu.Checkpoint, error) {
	s.ckptOnce.Do(s.openCheckpoints)
	key := campaign.CheckpointKey{Bench: cell.Bench, Scale: cell.Scale, Skip: cell.SkipInstr, Workload: cell.WorkloadID}
	return s.ckpts.Get(key, func() (*emu.Checkpoint, error) {
		return emu.BuildCheckpoint(prog, cell.SkipInstr)
	})
}

// openCheckpoints creates the session's checkpoint cache and attaches it
// to the engine, whose progress line and summary report its counts.
func (s *Session) openCheckpoints() {
	ckptDir := ""
	if s.store != nil {
		ckptDir = filepath.Join(s.opt.CacheDir, "ckpt")
	}
	ckpts, err := campaign.NewCheckpoints(ckptDir, s.opt.Log)
	if err != nil {
		// Degrade to a memory-only checkpoint cache; the campaign still
		// shares one functional pass per (bench, scale, skip) in-process.
		if s.opt.Log != nil {
			fmt.Fprintf(s.opt.Log, "  checkpoint persistence disabled: %v\n", err)
		}
		ckpts, _ = campaign.NewCheckpoints("", s.opt.Log)
	}
	s.ckpts = ckpts
	s.eng.AttachCheckpoints(ckpts)
}

// attachTelemetry wires a per-cell JSONL collector when TelemetryDir is
// set. The returned closer flushes the stream with p's final cycle
// count; it is nil when telemetry is off.
func (s *Session) attachTelemetry(p *core.Processor, cfg core.Config, src workload.Source) (func() error, error) {
	if s.opt.TelemetryDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(s.opt.TelemetryDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: telemetry dir: %w", err)
	}
	name := strings.Map(func(r rune) rune {
		if r == '/' || r == ' ' {
			return '_'
		}
		return r
	}, cfg.Name) + "-" + src.Name() + ".jsonl"
	f, err := os.Create(filepath.Join(s.opt.TelemetryDir, name))
	if err != nil {
		return nil, fmt.Errorf("harness: telemetry file: %w", err)
	}
	col := telemetry.NewCollector(f, s.opt.SampleInterval)
	p.AttachTelemetry(col)
	return func() error {
		cerr := col.Close(p.Statistics().Cycles)
		if ferr := f.Close(); cerr == nil {
			cerr = ferr
		}
		return cerr
	}, nil
}

// Transient is the harness's retry classifier: wall-clock deadline hits
// on a loaded machine are worth re-execution, simulator bugs never are,
// and neither is a deliberate cancellation — a cancelled campaign must
// stop, not retry cells against a context that stays cancelled.
func Transient(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	var se *core.SimError
	return errors.As(err, &se) && se.Transient
}

// ExecCell executes one campaign cell in-process, panic-isolated, without
// touching the session's engine, memo, or store. It is the execution
// surface service workers mount behind the coordinator protocol: the
// coordinator owns dedup, retries, and persistence, so the worker needs
// raw single-shot execution — but still shares the session's checkpoint
// cache across the cells it is leased.
func (s *Session) ExecCell(cell campaign.Cell) (rec *campaign.Record, err error) {
	return s.ExecCellWithProgress(cell, nil)
}

// ExecCellWithProgress is ExecCell with a per-cell interval progress
// callback: onInterval(done, planned) fires once up front (done == 0,
// announcing the plan size) and again as each measured window of a
// sampled cell completes. Detailed (non-sampled) cells never invoke it.
// Service workers pass a callback that stashes the counts for their next
// lease heartbeat, letting the coordinator fold fractional in-flight
// progress into the fleet ETA.
func (s *Session) ExecCellWithProgress(cell campaign.Cell, onInterval func(done, planned int)) (rec *campaign.Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = nil, fmt.Errorf("harness: panic executing %s: %v", cell, r)
		}
	}()
	return s.execute(cell, onInterval)
}

// RunAll simulates every selected benchmark under cfg, concurrently, and
// returns the successful results keyed by benchmark name. Failed cells
// do NOT abort the sweep: the remaining benchmarks still run, and the
// returned error joins every failure (in table order) so callers see all
// of them at once. Failed cells are also recorded on the session —
// see Failures and FailureSummary.
func (s *Session) RunAll(cfg core.Config) (map[string]*Result, error) {
	srcs, err := s.benchmarks()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Result, len(srcs))
	errs := make([]error, len(srcs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, src := range srcs {
		i, src := i, src
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.Run(cfg, src)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[i] = err
				return
			}
			out[resultKey(src)] = r
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// Prime submits a manifest to the engine without waiting: the worker
// pool starts crunching the whole campaign immediately while experiment
// tables render in their own order, each waiting only on the cells it
// needs. Returns the manifest size.
func (s *Session) Prime(m campaign.Manifest) int {
	s.eng.Prime(m.Cells())
	return m.Len()
}

// Failures returns the failed cells recorded so far, ordered by
// (config, benchmark).
func (s *Session) Failures() []*Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]*Result(nil), s.failures...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Config != out[j].Config {
			return out[i].Config < out[j].Config
		}
		return out[i].Bench < out[j].Bench
	})
	return out
}

// FailureSummary renders the session's failed cells as a table (empty
// string when every run succeeded). Experiment drivers print it after a
// sweep so partial results are never mistaken for complete ones.
func (s *Session) FailureSummary() string {
	fails := s.Failures()
	if len(fails) == 0 {
		return ""
	}
	t := &stats.Table{
		Title:   "Failed runs",
		Headers: []string{"Config", "Benchmark", "Kind", "Cycle", "Error"},
	}
	for _, f := range fails {
		kind, cycle := "-", "-"
		var se *core.SimError
		if errors.As(f.Err, &se) {
			kind = string(se.Kind)
			cycle = fmt.Sprintf("%d", se.Cycle)
		}
		msg := f.Err.Error()
		if len(msg) > 72 {
			msg = msg[:69] + "..."
		}
		t.AddRow(f.Config, f.Bench, kind, cycle, msg)
	}
	t.AddNote("%d of the sweep's cells failed; metrics above exclude them", len(fails))
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// suiteAverages computes the per-suite arithmetic-mean speedup of `news`
// over `olds` (the paper's suite averages).
func (s *Session) suiteAverages(news, olds map[string]*Result) map[workload.Suite]float64 {
	per := map[workload.Suite][]float64{}
	for name, n := range news {
		o, ok := olds[name]
		if !ok {
			continue
		}
		per[n.Suite] = append(per[n.Suite], stats.Speedup(n.IPC, o.IPC))
	}
	out := map[workload.Suite]float64{}
	for suite, xs := range per {
		out[suite] = stats.ArithMean(xs)
	}
	return out
}

var suites = []workload.Suite{workload.SuiteInt, workload.SuiteFP, workload.SuiteOlden}
