// Command wibsim runs one benchmark kernel on one processor
// configuration and prints detailed statistics — the basic user-facing
// simulator front end.
//
// Usage:
//
//	wibsim -bench art [-config base|wib|iq2k|wib256] [-instr N]
//	       [-predict] [-record-trace out.wtr]
//	       [-skip N] [-measure N] [-sample n=50,period=200000,len=2000,warm=2000]
//	       [-wib-entries N] [-bitvectors N] [-policy banked|program-order|rr-load|oldest-load]
//	       [-mem-latency N] [-dump] [-deadline 30s] [-crash-dump crash.json]
//	       [-watchdog N] [-lockstep]
//	       [-telemetry] [-telemetry-out telemetry.jsonl] [-sample-interval N]
//	       [-trace-out trace.json] [-kanata pipeline.kanata] [-pprof cpu.prof]
//
// -predict skips the detailed simulation entirely: one fast functional
// profiling pass feeds the mechanistic interval model (DESIGN.md §14),
// which prints a closed-form cycle/IPC estimate for the selected
// configuration with a per-penalty-class term breakdown — the same
// model `experiments -explore` prunes campaign sweeps with.
//
// -bench accepts any workload ref: a registry kernel name ("art"),
// "trace:path.wtr" to replay a recorded trace, or "synth:mlp=4,..." for
// a parameterized synthetic kernel. -record-trace records the workload
// on the functional emulator (to -instr instructions, 0 = to halt) and
// writes a .wtr trace file (gzip when the path ends in .gz) instead of
// simulating.
//
// A failed run (invariant violation, deadlock, oracle divergence, or
// deadline) exits 1 after printing the structured error; -crash-dump
// writes its JSON form for offline replay with `wibtrace -replay`.
//
// Observability: -telemetry samples counters/gauges/histograms into a
// JSONL time series every -sample-interval cycles; -trace-out and -kanata
// render per-instruction lifecycle traces (Chrome trace-event JSON and a
// Konata-compatible pipeline view); -pprof writes a Go CPU profile of the
// simulator itself. Render or validate outputs with `wibtrace -render`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/harness"
	"largewindow/internal/isa"
	"largewindow/internal/model"
	"largewindow/internal/sample"
	"largewindow/internal/telemetry"
	"largewindow/internal/trace"
	"largewindow/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "treeadd", "workload ref: kernel name, trace:PATH, or synth:SPEC (see -list)")
		predict = flag.Bool("predict", false, "interval-model prediction instead of detailed simulation (one functional profiling pass)")
		record  = flag.String("record-trace", "", "record the workload to this .wtr trace file and exit (budget = -instr, 0 = to halt)")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		config  = flag.String("config", "base", "base, wib, iq2k, or custom")
		instr   = flag.Uint64("instr", 1_000_000, "committed-instruction budget (0 = to completion)")
		skip    = flag.Uint64("skip", 0, "fast-forward N instructions functionally before detailed simulation")
		measure = flag.Uint64("measure", 0, "measured-region instruction budget (alias of -instr for skip/measure windows)")
		smpl    = flag.String("sample", "", "SMARTS sampling plan, e.g. n=50,period=200000,len=2000,warm=2000[,seed=S,random]")
		cycles  = flag.Int64("cycles", 200_000_000, "cycle budget")
		scale   = flag.String("scale", "run", "kernel scale: test, run, full")
		entries = flag.Int("wib-entries", 2048, "WIB/active-list entries (config=custom)")
		bitvecs = flag.Int("bitvectors", 0, "bit-vector limit, 0=unlimited (config=custom)")
		policy  = flag.String("policy", "banked", "reinsertion policy (config=custom)")
		memLat  = flag.Int64("mem-latency", 250, "main memory latency in cycles")
		dump    = flag.Bool("dump", false, "dump pipeline state after the run")
		ptrace  = flag.Int("pipetrace", 0, "record and print the lifecycle of the last N instructions")

		deadline  = flag.Duration("deadline", 0, "wall-clock limit for the run (0 = none)")
		crashDump = flag.String("crash-dump", "", "on failure, write the structured error as JSON to this file")
		watchdog  = flag.Int64("watchdog", 0, "deadlock watchdog threshold in cycles (0 = default 1M, negative = off)")
		lockstep  = flag.Bool("lockstep", false, "cross-check every commit against the functional emulator (slow)")

		telem     = flag.Bool("telemetry", false, "sample counters/gauges into a JSONL time series")
		telemOut  = flag.String("telemetry-out", "telemetry.jsonl", "telemetry sample file (with -telemetry)")
		sampleIvl = flag.Int64("sample-interval", telemetry.DefaultSampleInterval, "cycles between telemetry samples")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON of traced instructions")
		kanataOut = flag.String("kanata", "", "write a Konata-compatible pipeline view of traced instructions")
		pprofOut  = flag.String("pprof", "", "write a CPU profile of the simulator run")
		noFF      = flag.Bool("no-fast-forward", false, "simulate every idle cycle (disable the fast-forward optimization)")
	)
	flag.Parse()

	if *list {
		for _, sp := range workload.All() {
			fmt.Printf("%-10s (%s)\n", sp.Name, sp.Suite)
		}
		return
	}
	src, err := workload.ParseRef(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (use -list for kernels, or trace:PATH / synth:SPEC)\n", err)
		os.Exit(2)
	}
	var sc workload.Scale
	switch *scale {
	case "test":
		sc = workload.ScaleTest
	case "full":
		sc = workload.ScaleFull
	default:
		sc = workload.ScaleRun
	}

	var cfg core.Config
	switch *config {
	case "base":
		cfg = core.DefaultConfig()
	case "wib":
		cfg = core.WIBDefault()
	case "iq2k":
		cfg = core.ScaledConfig(2048, 2048)
	case "custom":
		cfg = core.WIBConfigSized(*entries, *bitvecs)
		switch *policy {
		case "banked":
		case "program-order":
			cfg.WIB.Banked = false
			cfg.WIB.Policy = core.PolicyProgramOrder
		case "rr-load":
			cfg.WIB.Banked = false
			cfg.WIB.Policy = core.PolicyRoundRobinLoad
		case "oldest-load":
			cfg.WIB.Banked = false
			cfg.WIB.Policy = core.PolicyOldestLoad
		default:
			fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown config %q\n", *config)
		os.Exit(2)
	}
	cfg.Mem.MemLatency = *memLat
	cfg.TraceCapacity = *ptrace
	if (*traceOut != "" || *kanataOut != "") && cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = 4096 // trace renders need the lifecycle ring
	}
	cfg.DeadlockCycles = *watchdog
	cfg.LockstepOracle = *lockstep
	cfg.NoFastForward = *noFF

	budget := *instr
	if *measure > 0 {
		budget = *measure
	}

	if *record != "" {
		recordTrace(*bench, sc, *instr, *record)
		return
	}

	prog, err := src.Build(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *predict {
		runPredict(src, sc, cfg, prog, budget)
		return
	}
	r := harness.Region{MaxInstr: budget, MaxCycles: *cycles, Bench: src.Name(), Scale: sc.String()}
	var plan sample.Plan
	if *smpl != "" {
		if plan, err = sample.Parse(*smpl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		r.Sampling = &plan
	}
	var ffTime time.Duration
	if *skip > 0 && r.Sampling == nil {
		ffStart := time.Now()
		if r.Checkpoint, err = emu.BuildCheckpoint(prog, *skip); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ffTime = time.Since(ffStart)
	}

	// The sampled core is recreated per window, so telemetry and the
	// lifecycle traces apply to detailed regions only.
	var col *telemetry.Collector
	if *telem && r.Sampling == nil {
		f, err := os.Create(*telemOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		col = telemetry.NewCollector(f, *sampleIvl)
	}
	var p *core.Processor
	r.Setup = func(np *core.Processor) error {
		p = np
		if col != nil {
			p.AttachTelemetry(col)
		}
		return nil
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	start := time.Now()
	out, err := harness.Simulate(ctx, cfg, prog, r)
	elapsed := time.Since(start)
	if p != nil {
		if col != nil {
			if cerr := col.Close(p.Statistics().Cycles); cerr != nil {
				fmt.Fprintf(os.Stderr, "writing telemetry: %v\n", cerr)
			}
		}
		writeInstrTraces(*traceOut, *kanataOut, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		var se *core.SimError
		if errors.As(err, &se) {
			writeCrashDump(*crashDump, se)
		}
		if *dump && p != nil {
			fmt.Fprintln(os.Stderr, p.DebugDump(20))
		}
		os.Exit(1)
	}
	if r.Sampling != nil {
		reportSampled(src, cfg, prog, plan, out, elapsed)
		return
	}

	st := &out.Stats
	h := p.Hierarchy()
	fmt.Printf("benchmark         %s (%s, %d static instrs)\n", src.Name(), src.Suite(), len(prog.Code))
	fmt.Printf("configuration     %s\n", cfg.Name)
	if st.Skipped > 0 {
		fmt.Printf("functional skip   %d instructions fast-forwarded in %s\n", st.Skipped, ffTime.Round(time.Microsecond))
	}
	fmt.Printf("cycles            %d\n", st.Cycles)
	fmt.Printf("committed         %d\n", st.Committed)
	fmt.Printf("IPC               %.4f\n", st.IPC)
	fmt.Printf("branch dir pred   %.4f (%d cond branches)\n", st.CondAccuracy(), st.CondBranches)
	fmt.Printf("mispredicts       %d   misfetches %d   replays %d\n", st.Mispredicts, st.Misfetches, st.Replays)
	l1d, l2 := h.L1DStats(), h.L2Stats()
	fmt.Printf("L1D               %d accesses, miss ratio %.4f\n", l1d.Accesses, l1d.MissRatio())
	fmt.Printf("L1I               %d accesses, miss ratio %.4f\n", h.L1IStats().Accesses, h.L1IStats().MissRatio())
	fmt.Printf("UL2               %d accesses, local miss ratio %.4f\n", l2.Accesses, l2.MissRatio())
	fmt.Printf("D-TLB miss ratio  %.5f\n", h.TLBMissRatio())
	fmt.Printf("forwarded loads   %d   store-wait holds %d\n", st.ForwardedLoads, st.StoreWaitHits)
	fmt.Printf("avg occupancy     %.1f (active list)\n", st.AvgROBOccupancy())
	fmt.Printf("MLP               %.2f avg / %d peak outstanding L2 misses (%d miss cycles)\n",
		st.AvgMLP(), st.MLPPeak, st.MLPCycles())
	if skipped, jumps := p.FastForwardStats(); jumps > 0 {
		fmt.Printf("fast-forward      %d idle cycles skipped in %d jumps (%.1f%% of cycles)\n",
			skipped, jumps, 100*float64(skipped)/float64(st.Cycles))
	}
	if cfg.WIB != nil {
		fmt.Printf("WIB insertions    %d total, %d reinsertions, avg %.2f / max %d per instruction\n",
			st.WIBInsertions, st.WIBReinsertions, st.AvgWIBInsertions(), st.WIBMaxInsertions)
		fmt.Printf("WIB peak occupancy %d; bit-vector stalls %d\n", st.WIBPeakOccupancy, st.BitVectorStalls)
	}
	if *dump {
		fmt.Println(p.DebugDump(20))
	}
	if *ptrace > 0 {
		fmt.Println()
		core.WriteTimeline(os.Stdout, p.Traces())
	}
}

// runPredict profiles the workload functionally and prints the interval
// model's closed-form estimate for the selected configuration, with the
// per-penalty-class term breakdown the model decomposes cycles into.
func runPredict(wl workload.Source, sc workload.Scale, cfg core.Config, prog *isa.Program, budget uint64) {
	start := time.Now()
	prof, err := model.Collect(prog, sc.String(), model.CollectOptions{
		MaxInstr: budget,
		Mem:      cfg.Mem,
		Bpred:    cfg.Bpred,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pr := model.Predict(prof, cfg)
	elapsed := time.Since(start)
	pct := func(term float64) float64 {
		if pr.Cycles <= 0 {
			return 0
		}
		return 100 * term / pr.Cycles
	}
	fmt.Printf("benchmark         %s (%s, %d static instrs)\n", wl.Name(), wl.Suite(), len(prog.Code))
	fmt.Printf("configuration     %s (uncalibrated interval model)\n", cfg.Name)
	fmt.Printf("profile           %d instructions in one functional pass (%s)\n",
		prof.N, elapsed.Round(time.Millisecond))
	fmt.Printf("effective window  %.0f (%s family)\n", pr.Weff, model.Family(cfg))
	fmt.Printf("predicted cycles  %.0f\n", pr.Cycles)
	fmt.Printf("predicted IPC     %.4f\n", pr.IPC)
	fmt.Printf("  base dispatch   %12.0f  (%5.1f%%)\n", pr.Base, pct(pr.Base))
	fmt.Printf("  long-miss       %12.0f  (%5.1f%%)  %.1f serialized of %d long misses\n",
		pr.LongMiss, pct(pr.LongMiss), pr.SerialMisses, prof.LongLoadMisses)
	fmt.Printf("  L2-hit          %12.0f  (%5.1f%%)\n", pr.L2Hit, pct(pr.L2Hit))
	fmt.Printf("  branch          %12.0f  (%5.1f%%)  %d mispredicts, %d BTB misses\n",
		pr.Branch, pct(pr.Branch), prof.Mispredicts, prof.BTBMisses)
	fmt.Printf("  fetch           %12.0f  (%5.1f%%)  %d L1I misses\n", pr.Fetch, pct(pr.Fetch), prof.L1IMisses)
	fmt.Printf("  TLB             %12.0f  (%5.1f%%)  %d D-TLB misses\n", pr.TLB, pct(pr.TLB), prof.TLBMisses)
	fmt.Printf("  ramp            %12.0f  (%5.1f%%)\n", pr.Ramp, pct(pr.Ramp))
}

// reportSampled prints the sampled report: point-estimate IPC with its
// 95% confidence interval, per-interval spread, and the measured-window
// memory-system ratios.
func reportSampled(wl workload.Source, cfg core.Config, prog *isa.Program, plan sample.Plan, out *sample.Outcome, elapsed time.Duration) {
	st := out.Stats
	fmt.Printf("benchmark         %s (%s, %d static instrs)\n", wl.Name(), wl.Suite(), len(prog.Code))
	fmt.Printf("configuration     %s\n", cfg.Name)
	fmt.Printf("sampling plan     %s\n", plan)
	fmt.Printf("intervals         %d measured of %d planned", len(out.IntervalIPCs), plan.Intervals)
	if out.Halted {
		fmt.Printf(" (program halted)")
	}
	fmt.Println()
	fmt.Printf("coverage          %d instructions functional+detailed, %d measured, in %s\n",
		out.TotalInstr, st.Committed, elapsed.Round(time.Millisecond))
	fmt.Printf("IPC               %.4f ± %.4f (95%% CI, stddev %.4f)\n", out.MeanIPC, out.IPCCI95, out.IPCStdDev)
	fmt.Printf("branch dir pred   %.4f (%d cond branches)\n", out.BrAcc, st.CondBranches)
	fmt.Printf("L1D miss ratio    %.4f (measured windows)\n", out.DL1Miss)
	fmt.Printf("UL2 local miss    %.4f (measured windows)\n", out.L2Local)
	fmt.Printf("D-TLB miss ratio  %.5f (measured windows)\n", out.TLBMiss)
	fmt.Printf("cycles measured   %d\n", st.Cycles)
}

// writeInstrTraces renders the core's lifecycle ring in the requested
// formats; empty paths are no-ops.
func writeInstrTraces(chromePath, kanataPath string, p *core.Processor) {
	if chromePath == "" && kanataPath == "" {
		return
	}
	recs := core.TraceRecords(p.Traces())
	write := func(path string, render func(f *os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		if err := render(f); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		}
	}
	write(chromePath, func(f *os.File) error { return telemetry.WriteChromeTrace(f, recs) })
	write(kanataPath, func(f *os.File) error { return telemetry.WriteKanata(f, recs) })
}

// writeCrashDump saves a structured failure as JSON (replayable with
// `wibtrace -replay`); a missing path is a no-op.
func writeCrashDump(path string, se *core.SimError) {
	if path == "" {
		return
	}
	data, err := se.JSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "encoding crash dump: %v\n", err)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "writing crash dump: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "crash dump written to %s (replay with: wibtrace -replay %s)\n", path, path)
}

// recordTrace records the workload on the functional emulator and
// writes the .wtr trace file (gzip-compressed when path ends in .gz).
// Re-recording an existing trace file is rejected by RecordRef.
func recordTrace(ref string, sc workload.Scale, maxInstr uint64, path string) {
	start := time.Now()
	tr, err := trace.RecordRef(ref, sc, maxInstr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fi, _ := os.Stat(path)
	var size int64
	if fi != nil {
		size = fi.Size()
	}
	fmt.Printf("recorded          %s (%s) at scale %s\n", tr.Name, tr.Suite, sc)
	fmt.Printf("instructions      %d (halted=%v) in %s\n", tr.Instrs, tr.Halted, time.Since(start).Round(time.Millisecond))
	fmt.Printf("trace             %s (%d bytes, %.2f bits/instr)\n", path, size, float64(size*8)/float64(tr.Instrs))
	fmt.Printf("identity          %s\n", tr.Identity())
	fmt.Printf("replay ref        trace:%s\n", path)
}
