package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/harness"
	"largewindow/internal/model"
	"largewindow/internal/workload"
)

// setupSamples is how many times a run sets a workload up, for the
// median behind setup_s.
const setupSamples = 9

// minCampaigns is the fewest campaigns an untraced run measures, even
// when they overrun the measurement window. peak_rss_mb is the peak over
// exactly these campaigns, so that it covers the same work on a slow host
// as on a fast one: memory a campaign leaves behind shows in the second
// campaign's peak, whatever number of campaigns follow it.
const minCampaigns = 2

// Configurations whose cells the throughput and fidelity metrics read.
const (
	baseConfig = "32-IQ/128"
	wibConfig  = "WIB/2048"
)

// exploreAlias maps explore-grid configuration names onto the identical
// Figure 4 machine: WIBConfigSized(2048, 1024) spells out the default
// one-bit-vector-per-load-queue-entry WIB, and the pinned cycle and
// instruction counts of the two agree cell for cell.
var exploreAlias = map[string]string{"WIB/2048-bv1024": wibConfig}

// bench is one run of one workload.
type bench struct {
	wl      *workloadDef
	seed    uint64
	seconds float64
	ref     *reference
	outDir  string

	setups []time.Duration
	builds []time.Duration
	hashes *streamHashes
}

// rep is one campaign: a fresh session run to completion.
type rep struct {
	p      *prepared
	report *model.Report
	err    error
	begin  time.Time
	wall   time.Duration
	cpu    time.Duration
	// peakRSS is the campaign's peak resident set, in MB.
	peakRSS float64
}

// campaignSeed is the seed of the k-th campaign of an untraced run. The
// first runs at the default seed — DefaultSamplingSpec as users get it —
// and gives the fidelity metrics, so they repeat exactly from run to run
// and move only when the simulator does. The others run at the workload
// seed and seeds derived from it, so the host-time metrics pool over
// different sampling windows and audit slices.
func (b *bench) campaignSeed(k int) uint64 {
	if k == 0 {
		return b.ref.DefaultSeed
	}
	return b.seed + uint64(k-1)<<32
}

// setup prepares the workload once for a seed, timing it.
func (b *bench) setup(seed uint64) (*prepared, error) {
	runtime.GC()
	start := time.Now()
	p, err := b.wl.prepare(seed)
	if err != nil {
		return nil, err
	}
	b.setups = append(b.setups, time.Since(start))
	b.builds = append(b.builds, p.buildTime)
	return p, nil
}

// setupSeveral times setupSamples set-ups and returns the last.
func (b *bench) setupSeveral(seed uint64) (*prepared, error) {
	var p *prepared
	var err error
	for i := 0; i < setupSamples; i++ {
		if p, err = b.setup(seed); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// campaignRun runs one prepared campaign, timing wall and process CPU and
// sampling its peak resident set. It first returns the heap's free pages
// to the OS, so that the peak does not depend on how many pages set-up or
// an earlier campaign left mapped, and afterwards drops the campaign's
// sessions, so that later campaigns do not carry its memos.
func campaignRun(p *prepared) *rep {
	debug.FreeOSMemory()
	rss := startRSSSampler()
	cpu0 := cpuTime()
	start := time.Now()
	report, err := p.run()
	r := &rep{p: p, report: report, err: err, begin: start, wall: time.Since(start), cpu: cpuTime() - cpu0}
	r.peakRSS = rss.stop()
	p.release()
	return r
}

// runUntraced measures the end-to-end metrics: campaigns repeat on fresh
// sessions while another one fits in the measurement window, at least
// minCampaigns times.
func (b *bench) runUntraced() (*result, error) {
	p, err := b.setupSeveral(b.campaignSeed(0))
	if err != nil {
		return nil, err
	}
	var reps []*rep
	window := time.Duration(b.seconds * float64(time.Second))
	begin := time.Now()
	for {
		r := campaignRun(p)
		reps = append(reps, r)
		if len(reps) >= minCampaigns && time.Since(begin)+r.wall > window {
			break
		}
		if p, err = b.setup(b.campaignSeed(len(reps))); err != nil {
			return nil, err
		}
	}
	res := b.check(reps)
	m := res.Metrics
	var walls, cpus []float64
	var rss float64
	var cells []cellSpan
	for i, r := range reps {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		if i < minCampaigns {
			rss = max(rss, r.peakRSS)
		}
		cells = append(cells, r.p.cells.spans...)
	}
	m["setup_s"] = metric{median(seconds(b.setups)), "s"}
	m["wall_s"] = metric{median(walls), "s"}
	m["cpu_s"] = metric{median(cpus), "s"}
	m["base_minstr_per_s"] = metric{instrRate(cells, baseConfig), "Minstr/s"}
	m["wib_minstr_per_s"] = metric{instrRate(cells, wibConfig), "Minstr/s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	if err := b.fidelity(reps[0], m); err != nil {
		return nil, err
	}
	return res, nil
}

// check verifies every campaign of the run: no cell failed, every
// stream hash matches the emulator, and every digest matches the pinned
// one, where the workload's cells do not depend on the seed or the
// campaign ran at the default seed.
func (b *bench) check(reps []*rep) *result {
	if b.hashes == nil {
		b.hashes = newStreamHashes()
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range reps {
		var pinned map[string]cellRef
		if !b.wl.seeded || r.p.seed == b.ref.DefaultSeed {
			pinned = b.ref.Cells[b.wl.name]
		}
		fails := checkCells(r.p.cells.spans, b.hashes, pinned)
		res.Attempted += len(r.p.cells.spans)
		res.Failed += len(fails)
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "FAIL campaign %d: %v\n", i, r.err)
			res.Correct = false
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	return res
}

// instrRate is the simulated-instruction throughput of one
// configuration's cells over their summed cell time, in Minstr/s, pooled
// over every campaign of the run. A sampled cell covers its whole
// program — measured windows, detailed warm-up and functional
// fast-forward — so it counts Committed+Skipped.
func instrRate(cells []cellSpan, config string) float64 {
	var instrs, secs float64
	for _, c := range cells {
		if c.err != nil || canonicalConfig(c.config) != config {
			continue
		}
		instrs += float64(c.rec.Stats.Committed + c.rec.Stats.Skipped)
		secs += c.seconds()
	}
	return ratio(instrs, secs) / 1e6
}

func canonicalConfig(name string) string {
	if alias, ok := exploreAlias[name]; ok {
		return alias
	}
	return name
}

// cellIPCs is the IPC the campaign reports per cell: measured for
// simulated cells, the calibrated model prediction for pruned explore
// cells. Keys use canonical configuration names.
func cellIPCs(r *rep) map[string]float64 {
	out := map[string]float64{}
	if r.report != nil {
		for _, pt := range r.report.Points {
			ipc := pt.Pred.IPC
			if pt.Simulated {
				ipc = pt.SimIPC
			}
			out[cellKey(canonicalConfig(pt.Config), pt.Bench)] = ipc
		}
		return out
	}
	for _, c := range r.p.cells.spans {
		if c.err == nil {
			out[cellKey(canonicalConfig(c.config), c.bench)] = c.rec.IPC
		}
	}
	return out
}

// fidelity adds the three accuracy metrics from one campaign.
func (b *bench) fidelity(r *rep, m map[string]metric) error {
	ipcs := cellIPCs(r)
	wibErr, err := fig4WIBErr(ipcs, b.ref.PaperFig4WIBPct)
	if err != nil {
		return err
	}
	errs := cellIPCErrs(ipcs, b.ref.WholeProgram)
	if len(errs) == 0 {
		return fmt.Errorf("no cell has whole-program truth")
	}
	report := r.report
	if report == nil {
		// The campaign ran no model: score the same pruned exploration,
		// answered from the pinned grid truth instead of simulation.
		if report, err = pinnedExplore(b.ref.Cells["explore-pruned"], r.p.seed); err != nil {
			return fmt.Errorf("pinned exploration: %w", err)
		}
	}
	modelErr, err := modelErrPct(report, b.ref.Cells["explore-pruned"])
	if err != nil {
		return err
	}
	m["fig4_wib_err_pp"] = metric{wibErr, "pp"}
	m["sample_ipc_err_pct"] = metric{mean(errs), "%"}
	m["model_err_pct"] = metric{modelErr, "%"}
	return nil
}

// cellIPCErrs is the absolute percent IPC error against whole-program
// truth of every cell the campaign reports that has such truth.
func cellIPCErrs(ipcs map[string]float64, truth map[string]cellRef) []float64 {
	var errs []float64
	for k, t := range truth {
		if ipc, ok := ipcs[k]; ok {
			errs = append(errs, 100*math.Abs(ipc-t.IPC)/t.IPC)
		}
	}
	return errs
}

// fig4WIBErr is the mean absolute gap, in percentage points, between the
// suite-average WIB speedups over the base machine and the paper's.
func fig4WIBErr(ipcs map[string]float64, paper map[string]float64) (float64, error) {
	per := map[string][]float64{}
	for _, sp := range workload.All() {
		base, okB := ipcs[cellKey(baseConfig, sp.Name)]
		wib, okW := ipcs[cellKey(wibConfig, sp.Name)]
		if !okB || !okW || base <= 0 {
			return 0, fmt.Errorf("no %s/%s IPC pair for %s", baseConfig, wibConfig, sp.Name)
		}
		suite := sp.Suite.String()
		per[suite] = append(per[suite], 100*(wib/base-1))
	}
	var gap float64
	for suite, want := range paper {
		xs, ok := per[suite]
		if !ok {
			return 0, fmt.Errorf("no kernels of suite %s", suite)
		}
		gap += math.Abs(mean(xs) - want)
	}
	return gap / float64(len(paper)), nil
}

// modelErrPct is the mean absolute error of the report's calibrated
// cycle predictions over the whole grid against full-detail truth.
func modelErrPct(rep *model.Report, truth map[string]cellRef) (float64, error) {
	var sum float64
	for _, pt := range rep.Points {
		t, ok := truth[cellKey(pt.Config, pt.Bench)]
		if !ok {
			return 0, fmt.Errorf("no pinned truth for explore cell %s × %s", pt.Config, pt.Bench)
		}
		sum += math.Abs(pt.Pred.Cycles-float64(t.Cycles)) / float64(t.Cycles)
	}
	return 100 * sum / float64(len(rep.Points)), nil
}

// pinnedExplore runs the explore-pruned exploration through a session
// whose cells are answered from pinned truth: the model's profiling,
// calibration and predictions run as in the campaign, the simulations
// do not.
func pinnedExplore(truth map[string]cellRef, seed uint64) (*model.Report, error) {
	opt, _ := detailedOptions(seed)
	opt.Scale = scale
	opt.Exec = func(c campaign.Cell) (*campaign.Record, error) {
		t, ok := truth[cellKey(c.Config.Name, c.Bench)]
		if !ok {
			return nil, fmt.Errorf("no pinned truth for %s × %s", c.Config.Name, c.Bench)
		}
		return &campaign.Record{Config: c.Config.Name, Bench: c.Bench, IPC: t.IPC,
			Stats: core.Stats{Cycles: t.Cycles, Committed: t.Committed, IPC: t.IPC}}, nil
	}
	return harness.NewSession(opt).Explore(harness.ExploreGrid(), harness.ExploreOptions{Seed: seed})
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler polls the process's resident set while a campaign runs and
// keeps its peak. The resident set of a Go process grows with the heap
// and shrinks only as the runtime returns pages, so polling every few
// milliseconds misses little of the peak.
type rssSampler struct {
	done chan struct{}
	peak chan float64
}

const rssPollInterval = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{done: make(chan struct{}), peak: make(chan float64)}
	go func() {
		t := time.NewTicker(rssPollInterval)
		defer t.Stop()
		peak := residentMB()
		for {
			select {
			case <-t.C:
				peak = max(peak, residentMB())
			case <-s.done:
				s.peak <- max(peak, residentMB())
				return
			}
		}
	}()
	return s
}

// stop ends the polling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.done)
	return <-s.peak
}

// residentMB reads the process's current resident set size from
// /proc/self/statm (its second field, in pages).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
