package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"largewindow"
	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/harness"
	"largewindow/internal/model"
	"largewindow/internal/sample"
	"largewindow/internal/workload"
)

// scale is the kernel sizing every workload runs at: cmd/experiments'
// default.
const scale = workload.ScaleRun

// detailedBudget is the committed-instruction budget of each fully
// detailed cell in paper-detailed and explore-pruned. cmd/experiments
// defaults to 300k; 20k keeps one paper-detailed campaign (666 cells)
// near 20 s on a 2-CPU host, so a run fits the benchmark's time limit.
const detailedBudget = 20_000

// workloadDef is one campaign the benchmark runs through harness.Session.
type workloadDef struct {
	name string
	// options returns the session options for a seed (scale, parallelism
	// and the cell executor are filled in by prepare).
	options func(seed uint64) (harness.Options, error)
	// experiments names the harness experiments the campaign renders;
	// empty means a model-pruned exploration of harness.ExploreGrid().
	experiments []string
	// seeded marks workloads whose simulated cells depend on the seed;
	// their digests are pinned at the default seed only.
	seeded bool
}

var workloads = []*workloadDef{
	{
		// The repository's deliverable: all ten experiments, 666 cells of
		// full detail. Exercises every core variant; no emulator or model.
		name:        "paper-detailed",
		options:     detailedOptions,
		experiments: []string{"all"},
	},
	{
		// Figure 4 over whole programs under the default SMARTS plan:
		// ~1,900 short detailed windows with emulator warming between them.
		name:        "fig4-sampled",
		options:     sampledOptions,
		experiments: []string{"fig4"},
		seeded:      true,
	},
	{
		// Model-pruned exploration: profiling, calibration and pruning
		// decide how much detailed work runs.
		name:    "explore-pruned",
		options: detailedOptions,
	},
}

func detailedOptions(uint64) (harness.Options, error) {
	return harness.Options{MaxInstr: detailedBudget}, nil
}

// samplingPlan is DefaultSamplingSpec with the workload seed as its
// window-placement seed.
func samplingPlan(seed uint64) (sample.Plan, error) {
	plan, err := sample.Parse(largewindow.DefaultSamplingSpec)
	plan.Seed = seed
	return plan, err
}

func sampledOptions(seed uint64) (harness.Options, error) {
	plan, err := samplingPlan(seed)
	if err != nil {
		return harness.Options{}, err
	}
	return harness.Options{Sampling: &plan}, nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// cellSpan is one executed cell: the span of the wrapped Options.Exec
// call and the record it returned.
type cellSpan struct {
	config, bench string
	start, end    time.Time
	rec           *campaign.Record
	err           error
}

func (c cellSpan) key() string { return cellKey(c.config, c.bench) }

func (c cellSpan) seconds() float64 { return c.end.Sub(c.start).Seconds() }

func cellKey(config, bench string) string { return config + "|" + bench }

// cellLog collects cell spans from the engine's worker goroutines.
type cellLog struct {
	mu    sync.Mutex
	spans []cellSpan
}

func (l *cellLog) add(c cellSpan) {
	l.mu.Lock()
	l.spans = append(l.spans, c)
	l.mu.Unlock()
}

// prepared is a workload ready to run: the set-up the benchmark times as
// setup_s is everything before the first cell starts.
type prepared struct {
	wl      *workloadDef
	seed    uint64
	srcs    []workload.Source
	sess    *harness.Session
	cells   *cellLog
	workers int
	// manifest is the primed cell grid (experiment workloads only).
	manifest campaign.Manifest
	// buildTime is the part of set-up spent building programs.
	buildTime time.Duration
}

// prepare resolves and builds every kernel, then creates the session.
// Cells execute on a second session's ExecCell, wrapped to record one
// span per cell; the outer session keeps the engine, memo and retries of
// the user path.
func (w *workloadDef) prepare(seed uint64) (*prepared, error) {
	p := &prepared{wl: w, seed: seed, cells: &cellLog{}, workers: runtime.GOMAXPROCS(0)}
	start := time.Now()
	for _, sp := range workload.All() {
		src, err := workload.ParseRef(workload.SchemeBench + ":" + sp.Name)
		if err != nil {
			return nil, err
		}
		if _, err := src.Build(scale); err != nil {
			return nil, fmt.Errorf("building %s: %w", sp.Name, err)
		}
		p.srcs = append(p.srcs, src)
	}
	p.buildTime = time.Since(start)

	opt, err := w.options(seed)
	if err != nil {
		return nil, err
	}
	opt.Scale = scale
	opt.Parallel = p.workers
	inner := harness.NewSession(opt)
	opt.Exec = func(c campaign.Cell) (*campaign.Record, error) {
		span := cellSpan{config: c.Config.Name, bench: c.Bench, start: time.Now()}
		span.rec, span.err = inner.ExecCell(c)
		span.end = time.Now()
		p.cells.add(span)
		return span.rec, span.err
	}
	p.sess = harness.NewSession(opt)
	if len(w.experiments) > 0 {
		if p.manifest, err = p.sess.ManifestFor(w.experiments); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// run executes the campaign. A failed cell does not stop it: every
// primed cell is waited for, and failures are read from the cell log.
// The exploration report is returned for explore-pruned.
func (p *prepared) run() (*model.Report, error) {
	if len(p.wl.experiments) == 0 {
		return p.sess.Explore(harness.ExploreGrid(), harness.ExploreOptions{Seed: p.seed})
	}
	p.sess.Prime(p.manifest)
	err := harness.RunExperiments(p.sess, p.wl.experiments, io.Discard)
	if err != nil {
		// RunExperiments stops at the first failing experiment; wait for
		// the rest of the primed grid so the cell log is complete.
		for _, cfg := range p.configs() {
			for _, src := range p.srcs {
				p.sess.Run(cfg, src)
			}
		}
	}
	return nil, err
}

// release drops the campaign's sessions, sources and manifest once it
// has run; the cell log and the seed stay for the checks and metrics.
func (p *prepared) release() {
	p.sess, p.srcs, p.manifest = nil, nil, campaign.Manifest{}
}

// configs lists the distinct configurations of the workload's
// experiments, or the explore grid.
func (p *prepared) configs() []core.Config {
	if len(p.wl.experiments) == 0 {
		return harness.ExploreGrid()
	}
	want := map[string]bool{}
	for _, id := range p.wl.experiments {
		want[id] = true
	}
	seen := map[string]bool{}
	var out []core.Config
	for _, ex := range harness.Experiments() {
		if !want["all"] && !want[ex.ID] {
			continue
		}
		for _, cfg := range ex.Configs() {
			if !seen[cfg.Name] {
				seen[cfg.Name] = true
				out = append(out, cfg)
			}
		}
	}
	return out
}
