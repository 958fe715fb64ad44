package largewindow

// One testing.B benchmark per table/figure of the paper. Each regenerates
// its experiment through the harness (at a reduced per-run instruction
// budget so `go test -bench=.` completes in minutes; use cmd/experiments
// for the full-budget tables) and reports the headline series as
// benchmark metrics: suite-average speedups over the 32-IQ/128 base
// machine, exactly the numbers the paper's figures plot.

import (
	"context"
	"errors"
	"io"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"largewindow/internal/emu"
	"largewindow/internal/harness"
	"largewindow/internal/stats"
	"largewindow/internal/workload"
)

// benchBudget is the per-run committed-instruction budget. Override with
// LARGEWINDOW_BENCH_INSTR for full-fidelity runs.
func benchBudget() uint64 {
	if s := os.Getenv("LARGEWINDOW_BENCH_INSTR"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 60_000
}

func benchSession() *harness.Session {
	return harness.NewSession(harness.Options{
		MaxInstr: benchBudget(),
		Scale:    workload.ScaleRun,
	})
}

// reportTables renders the regenerated tables when -v is set and reports
// per-suite averages parsed out of the experiment run.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		out := io.Discard
		if testing.Verbose() {
			out = os.Stdout
		}
		if err := harness.RunExperiments(s, []string{id}, out); err != nil {
			b.Fatal(err)
		}
	}
}

// reportSuiteSpeedups runs new/old configs over all kernels, reports the
// suite-average speedups as metrics, and returns the total committed
// instructions so callers can also report wall-clock throughput.
func reportSuiteSpeedups(b *testing.B, s *harness.Session, newCfg, oldCfg Config) uint64 {
	b.Helper()
	news, err := s.RunAll(newCfg)
	if err != nil {
		b.Fatal(err)
	}
	olds, err := s.RunAll(oldCfg)
	if err != nil {
		b.Fatal(err)
	}
	per := map[workload.Suite][]float64{}
	var committed uint64
	for name, n := range news {
		o := olds[name]
		per[n.Suite] = append(per[n.Suite], stats.Speedup(n.IPC, o.IPC))
		committed += n.Stats.Committed + o.Stats.Committed
	}
	b.ReportMetric(stats.ArithMean(per[workload.SuiteInt]), "int-speedup")
	b.ReportMetric(stats.ArithMean(per[workload.SuiteFP]), "fp-speedup")
	b.ReportMetric(stats.ArithMean(per[workload.SuiteOlden]), "olden-speedup")
	return committed
}

// BenchmarkFig1 regenerates the Figure 1 limit study (window sizes 32-4K).
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable2 regenerates Table 2 (per-benchmark base/WIB statistics).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig4 regenerates Figure 4 and reports the WIB's suite-average
// speedups — the paper's headline 20%/84%/50% series.
func BenchmarkFig4(b *testing.B) {
	var committed uint64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		committed += reportSuiteSpeedups(b, s, WIBConfig(), BaseConfig())
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkFig4Conventional reports the 2K-IQ/2K series of Figure 4 (the
// paper's 35%/140%/103%).
func BenchmarkFig4Conventional(b *testing.B) {
	var committed uint64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		committed += reportSuiteSpeedups(b, s, ScaledConfig(2048, 2048), BaseConfig())
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkFig5 regenerates Figure 5 (limited bit-vectors) and reports
// the 16-bit-vector series.
func BenchmarkFig5(b *testing.B) {
	var committed uint64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		committed += reportSuiteSpeedups(b, s, WIBConfigSized(2048, 16), BaseConfig())
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkFig6 regenerates Figure 6 (WIB capacity) and reports the
// 256-entry series.
func BenchmarkFig6(b *testing.B) {
	var committed uint64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		committed += reportSuiteSpeedups(b, s, WIBConfigSized(256, 64), BaseConfig())
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkPolicy regenerates the §4.4 selection-policy study.
func BenchmarkPolicy(b *testing.B) { runExperiment(b, "policy") }

// BenchmarkFig7 regenerates Figure 7 (non-banked multicycle WIB).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkSensitivity regenerates the §4.1 sensitivity studies
// (100-cycle memory, 1MB L2, 64KB L1D).
func BenchmarkSensitivity(b *testing.B) { runExperiment(b, "sens") }

// BenchmarkPoolOfBlocks regenerates the §3.5 organization comparison
// (extension: the paper describes but does not evaluate it).
func BenchmarkPoolOfBlocks(b *testing.B) { runExperiment(b, "pool") }

// BenchmarkSliceCore regenerates the §6 future-work study (slice
// execution core, register-file prefetch, multi-banked register file).
func BenchmarkSliceCore(b *testing.B) { runExperiment(b, "slice") }

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// committed instructions per wall second) for the base and WIB machines —
// the engineering metric of the simulator itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, cfg := range []Config{BaseConfig(), WIBConfig()} {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			prog := kernel(b, "gzip", ScaleRun)
			b.ResetTimer()
			var committed uint64
			for i := 0; i < b.N; i++ {
				r, err := SimulateContext(context.Background(), cfg, prog, WithMaxInstr(50_000))
				if err != nil {
					b.Fatal(err)
				}
				committed += r.Stats.Committed
			}
			b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkEmulatorThroughput measures the functional emulator's
// predecoded fast path (emulated instructions per wall second) — the
// speed the checkpointed fast-forward runs at. A budget-bounded run that
// does not halt is the normal case here.
func BenchmarkEmulatorThroughput(b *testing.B) {
	prog := kernel(b, "gzip", ScaleRun)
	b.ResetTimer()
	var executed uint64
	for i := 0; i < b.N; i++ {
		m := emu.New(prog)
		n, err := m.Run(1_000_000)
		if err != nil && !errors.Is(err, emu.ErrNotHalted) {
			b.Fatal(err)
		}
		executed += n
	}
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkCheckpointedCampaign measures the tentpole's win: a Fig.4-style
// multi-config sweep over one benchmark, detailed-only (every config
// executes skip+measure instructions in the timing core) versus
// checkpointed (one shared functional pass covers the skip, each config
// times only the measured region). The "ckpt-speedup" metric is the
// wall-clock ratio; scripts/check.sh gates it at >= 3x.
func BenchmarkCheckpointedCampaign(b *testing.B) {
	const (
		skip    = 200_000
		measure = 50_000
	)
	configs := []Config{BaseConfig(), WIBConfig(), WIBConfigSized(2048, 16), ScaledConfig(2048, 2048)}
	prog := func() *Program { return kernel(b, "gzip", ScaleRun) }

	var detailed, checkpointed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for _, cfg := range configs {
			if _, err := SimulateContext(context.Background(), cfg, prog(), WithMaxInstr(skip+measure)); err != nil {
				b.Fatal(err)
			}
		}
		detailed += time.Since(start)

		start = time.Now()
		cp, err := FastForward(prog(), skip) // one functional pass, shared
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range configs {
			res, err := SimulateContext(context.Background(), cfg, prog(),
				WithCheckpoint(cp), WithMeasure(measure))
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Skipped != skip {
				b.Fatalf("Skipped = %d, want %d", res.Stats.Skipped, skip)
			}
		}
		checkpointed += time.Since(start)
	}
	b.ReportMetric(detailed.Seconds()/checkpointed.Seconds(), "ckpt-speedup")
	b.ReportMetric(checkpointed.Seconds()/float64(b.N), "ckpt-s/sweep")
}

// BenchmarkSampledCampaign measures the sampling engine's win: the full
// 18-kernel suite under the base and WIB machines, each cell run to
// completion in the detailed core versus estimated by the default
// SMARTS plan. It reports the wall-clock ratio ("sample-speedup") and
// the mean absolute per-cell error of the sampled IPC estimate against
// the full-detail truth ("sample-ipc-err", percent). The sampled arm
// pays all of its own costs — one sizing pass per benchmark to resolve
// the auto-period plan (memoized across configs, exactly as the
// campaign session memoizes it), functional warming, and per-interval
// checkpoint handoffs. scripts/check.sh gates the recorded numbers at
// >= 5x and <= 2%.
func BenchmarkSampledCampaign(b *testing.B) {
	plan, err := ParseSamplingPlan(DefaultSamplingSpec)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cfgs := []Config{BaseConfig(), WIBConfig()}
	var detailed, sampled time.Duration
	var sumErr float64
	var cells int
	for i := 0; i < b.N; i++ {
		var truths []float64
		start := time.Now()
		for _, spec := range workload.All() {
			for _, cfg := range cfgs {
				r, err := SimulateContext(ctx, cfg, kernel(b, spec.Name, ScaleRun))
				if err != nil {
					b.Fatal(err)
				}
				truths = append(truths, r.IPC())
			}
		}
		detailed += time.Since(start)

		start = time.Now()
		j := 0
		for _, spec := range workload.All() {
			prog := kernel(b, spec.Name, ScaleRun)
			total, err := ProgramLength(prog)
			if err != nil {
				b.Fatal(err)
			}
			resolved := plan.Resolve(total)
			for _, cfg := range cfgs {
				r, err := SimulateContext(ctx, cfg, kernel(b, spec.Name, ScaleRun), WithSampling(resolved))
				if err != nil {
					b.Fatal(err)
				}
				sumErr += math.Abs(r.IPC()-truths[j]) / truths[j]
				j++
				cells++
			}
		}
		sampled += time.Since(start)
	}
	b.ReportMetric(detailed.Seconds()/sampled.Seconds(), "sample-speedup")
	b.ReportMetric(100*sumErr/float64(cells), "sample-ipc-err")
}

// modelPrunedGrid is the design space BenchmarkModelPrunedCampaign sweeps:
// deep conventional and WIB window-scaling ladders plus big-L2
// alternative-area points. The ladders are deep enough that the interval
// model's calibration anchors (the window extremes and midpoint of each
// family) leave most of the grid for the model to answer. The bit-vector
// axis is deliberately shallow here: column exhaustion collapses the
// machine onto its small issue queues, a nonlinearity outside the
// model's domain that the exploration's audit slice exists to flag (see
// DESIGN.md §14).
func modelPrunedGrid() []Config {
	var grid []Config
	for _, p := range [][2]int{
		{32, 128}, {48, 192}, {64, 256}, {96, 384}, {128, 512}, {192, 768},
		{256, 1024}, {384, 1536}, {512, 2048}, {1024, 2048}, {2048, 2048},
	} {
		grid = append(grid, ScaledConfig(p[0], p[1]))
	}
	for _, n := range []int{128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096} {
		grid = append(grid, WIBConfigSized(n, 64))
	}
	for _, base := range []Config{
		BaseConfig(), ScaledConfig(2048, 2048),
		WIBConfigSized(512, 64), WIBConfigSized(2048, 64),
	} {
		big := base
		big.Mem.L2.SizeBytes = 1 << 20
		big.Name += "/1MB-L2"
		grid = append(grid, big)
		l1 := base
		l1.Mem.L1D.SizeBytes = 64 << 10
		l1.Name += "/64KB-L1D"
		grid = append(grid, l1)
	}
	return grid
}

// BenchmarkModelPrunedCampaign measures the interval model's win: a
// 30-config × 6-kernel design-space sweep run cell-by-cell in the
// detailed core versus explored with model pruning (profile once per
// workload and cache family, simulate only the calibration anchors, the
// predicted top-2 configs, and a 5% audit slice). The workload mix spans
// both suites and all three memory personalities — latency-tolerant
// (art, swim), pointer-chasing (mst, em3d, perimeter), and
// cache-resident (gzip). The explore arm pays
// all of its own costs — profiling passes, prediction, calibration, and
// the audit simulations. "explore-speedup" is the wall-clock ratio;
// "model-cpi-err" is the mean absolute percent error of the calibrated
// per-cell cycle predictions against the full-detail truth over the
// ENTIRE grid, not just the audit slice. scripts/check.sh gates the
// recorded numbers at >= 3x and <= 10%.
func BenchmarkModelPrunedCampaign(b *testing.B) {
	cfgs := modelPrunedGrid()
	benches := []string{"mst", "em3d", "art", "gzip", "swim", "perimeter"}
	budget := benchBudget()
	ctx := context.Background()

	var full, explore time.Duration
	var sumErr float64
	var cells int
	for i := 0; i < b.N; i++ {
		truth := map[string]float64{}
		start := time.Now()
		for _, cfg := range cfgs {
			for _, bench := range benches {
				src, err := ParseWorkloadRef(bench)
				if err != nil {
					b.Fatal(err)
				}
				r, err := SimulateContext(ctx, cfg, nil,
					WithWorkload(src, ScaleRun), WithMaxInstr(budget))
				if err != nil {
					b.Fatal(err)
				}
				truth[cfg.Name+"\x00"+bench] = float64(r.Stats.Cycles)
			}
		}
		full += time.Since(start)

		start = time.Now()
		rep, err := ExploreContext(ctx, cfgs, benches,
			WithMaxInstr(budget), WithWorkloadScale(ScaleRun),
			WithModelPrune(2, 0.05), WithExploreSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		explore += time.Since(start)
		if rep.Pruned == 0 {
			b.Fatal("model pruned no cells")
		}
		for _, p := range rep.Points {
			t := truth[p.Config+"\x00"+p.Bench]
			if t <= 0 {
				b.Fatalf("no truth cell for %s × %s", p.Config, p.Bench)
			}
			sumErr += math.Abs(p.Pred.Cycles-t) / t
			cells++
		}
	}
	b.ReportMetric(full.Seconds()/explore.Seconds(), "explore-speedup")
	b.ReportMetric(100*sumErr/float64(cells), "model-cpi-err")
}
