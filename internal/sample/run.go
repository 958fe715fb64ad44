package sample

import (
	"context"
	"errors"
	"fmt"

	"largewindow/internal/bpred"
	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
	"largewindow/internal/stats"
)

// Progress receives interval-completion updates during Run: done measured
// intervals out of planned. It is called from Run's goroutine; nil means
// no reporting. The campaign progress line renders it as "interval k/N".
type Progress func(done, planned int)

// Outcome is the result of one sampled run: the per-interval IPC series,
// the aggregated measured-window stats, and the CLT estimators over the
// interval CPIs. harness.Simulate reports a contiguous detailed region in
// the same type, filling only Stats, the miss ratios, BrAcc and Halted.
type Outcome struct {
	// Plan is the executed plan — auto-period plans appear here resolved
	// against the program's actual length.
	Plan Plan
	// IntervalIPCs holds one measured-window IPC per completed interval
	// (possibly fewer than Plan.Intervals when the program halted).
	IntervalIPCs []float64
	// Stats sums the measured windows: Committed/Cycles cover measured
	// instructions only, Skipped counts everything executed functionally
	// or as detailed warmup, and IPC is the sampled point estimate
	// (MeanIPC).
	Stats core.Stats
	// MeanIPC is the sampled estimate of the program's IPC: the inverse of
	// the mean per-interval CPI. With (near-)equal instruction units
	// placed uniformly in instruction space, mean window CPI is the
	// unbiased estimator of the program's cycles-per-instruction; the
	// arithmetic mean of window IPCs would overestimate (Jensen's
	// inequality — fast windows overweighted). IPCStdDev and IPCCI95
	// qualify it, propagated from the CPI series (delta method).
	MeanIPC   float64
	IPCStdDev float64
	IPCCI95   float64
	// Measured-window memory-system ratios (aggregated across intervals).
	DL1Miss float64
	L2Local float64
	TLBMiss float64
	BrAcc   float64
	// Halted reports that the program ran to completion before the plan
	// was exhausted.
	Halted bool
	// TotalInstr is how far into the program the run reached
	// (functional + detailed instructions).
	TotalInstr uint64
}

// ProgramLength runs a throwaway functional machine to completion and
// returns the program's dynamic instruction count — what auto-period
// plans resolve against. It costs one emulator pass (~74M instrs/s);
// campaign callers memoize it per benchmark.
func ProgramLength(prog *isa.Program) (uint64, error) {
	m := emu.New(prog)
	n, err := m.Run(1 << 62)
	if err != nil {
		return 0, fmt.Errorf("sample: sizing %s: %w", prog.Name, err)
	}
	return n, nil
}

// Run executes one sampling plan: the functional emulator fast-forwards
// between detailed windows while streaming the full access history into
// one persistent cache hierarchy and branch predictor (full-history
// functional warming — no bounded warm rings), and each window runs on a
// fresh detailed core seeded by a copy-on-write checkpoint handoff that
// adopts the warmed state. maxCycles bounds each detailed window
// (0 = unbounded). An auto-period plan (Period == 0) is first resolved
// against the program's measured length.
//
// The emulator, not the core, carries the program: after a window the
// next fast-forward re-executes the window's instructions functionally,
// so successive windows always continue one unbroken functional stream
// and the same plan yields byte-identical outcomes on every run.
func Run(ctx context.Context, cfg core.Config, prog *isa.Program, plan Plan, maxCycles int64, progress Progress) (*Outcome, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if !plan.Resolved() {
		total, err := ProgramLength(prog)
		if err != nil {
			return nil, err
		}
		plan = plan.Resolve(total)
	}
	out := &Outcome{Plan: plan}
	m := emu.New(prog)
	warm := &core.Warmer{Hier: mem.NewHierarchy(cfg.Mem), Bpred: bpred.New(cfg.Bpred)}

	// Aggregated measured-window memory-system counters.
	var dl1Acc, dl1Miss, l2Acc, l2Miss, tlbAcc, tlbMiss uint64
	var cpis []float64

	for k := 0; k < plan.Intervals; k++ {
		start := plan.Offset(k)
		if start > m.InstrCount {
			if _, err := m.RunObserved(start-m.InstrCount, warm); err != nil && !errors.Is(err, emu.ErrNotHalted) {
				return nil, fmt.Errorf("sample: fast-forward to interval %d of %s: %w", k, prog.Name, err)
			}
		}
		if m.Halted {
			out.Halted = true
			break
		}

		cp := m.Checkpoint()
		p, err := core.New(cfg, prog)
		if err != nil {
			return nil, err
		}
		// Hand the persistent warm state to this interval's core. The
		// in-flight fill table carries cycle stamps from the previous
		// interval's clock; drop it (cache contents stay). The predictor
		// goes over as a CLONE: the shared copy stays architectural-stream-
		// pure, because a core's in-window speculation (and the abandoned
		// in-flight tail when its budget expires) would otherwise
		// contaminate the trained state later intervals inherit — a sliver
		// of extra mispredicts that a deep window amplifies into tens of
		// percent of IPC error.
		warm.Hier.ResetTiming()
		if err := p.AdoptWarmState(warm.Hier, warm.Bpred.Clone()); err != nil {
			return nil, intervalErr(k, prog.Name, err)
		}
		if err := p.RestoreCheckpoint(cp); err != nil {
			return nil, fmt.Errorf("sample: interval %d of %s: %w", k, prog.Name, err)
		}

		// Detailed warmup (not measured), then the measured unit. Budgets
		// are absolute committed counts on one continuing processor, so
		// the second RunContext picks up exactly where the first stopped.
		var pre core.Stats
		var preDL1, preL2 struct{ acc, miss uint64 }
		var preTLBAcc, preTLBMiss uint64
		if plan.Warmup > 0 {
			st, err := p.RunContext(ctx, plan.Warmup, maxCycles)
			if err != nil && !errors.Is(err, core.ErrBudget) {
				return nil, intervalErr(k, prog.Name, err)
			}
			if err == nil || st.Committed < plan.Warmup {
				// Halted (or cycle-bounded) inside warmup: no measured
				// window exists for this interval.
				out.Halted = err == nil
				break
			}
			pre = *st
			h := p.Hierarchy()
			l1d, l2 := h.L1DStats(), h.L2Stats()
			preDL1.acc, preDL1.miss = l1d.Accesses, l1d.Misses
			preL2.acc, preL2.miss = l2.Accesses, l2.Misses
			preTLBAcc, preTLBMiss = h.TLBStats()
		}
		st, err := p.RunContext(ctx, plan.Detailed(), maxCycles)
		if err != nil && !errors.Is(err, core.ErrBudget) {
			return nil, intervalErr(k, prog.Name, err)
		}
		win := st.Delta(pre)
		if win.Committed > 0 && win.Cycles > 0 {
			out.Stats.Accumulate(win)
			out.IntervalIPCs = append(out.IntervalIPCs, win.IPC)
			cpis = append(cpis, float64(win.Cycles)/float64(win.Committed))
			h := p.Hierarchy()
			l1d, l2 := h.L1DStats(), h.L2Stats()
			dl1Acc += l1d.Accesses - preDL1.acc
			dl1Miss += l1d.Misses - preDL1.miss
			l2Acc += l2.Accesses - preL2.acc
			l2Miss += l2.Misses - preL2.miss
			ta, tm := h.TLBStats()
			tlbAcc += ta - preTLBAcc
			tlbMiss += tm - preTLBMiss
			if progress != nil {
				progress(len(out.IntervalIPCs), plan.Intervals)
			}
		}
		if err == nil {
			// The program halted inside the detailed window: the partial
			// window above (if any) is the final interval.
			out.Halted = true
			m.InstrCount += st.Committed // advance TotalInstr bookkeeping
			break
		}

		// Re-execute the window's instructions on the emulator with the
		// warmer: the shared predictor saw none of them (the core
		// trained only its private clone), and the shared hierarchy is
		// refreshed in architectural order, scrubbing the abandoned
		// interval's speculative leftovers. Every instruction of the
		// program thus trains the shared warm state exactly once.
		if _, err := m.RunObserved(st.Committed, warm); err != nil && !errors.Is(err, emu.ErrNotHalted) {
			return nil, fmt.Errorf("sample: advancing past interval %d of %s: %w", k, prog.Name, err)
		}
	}

	// Position bookkeeping: the emulator re-executes every detailed
	// window, so its count is authoritative (the in-window-halt case
	// adjusts it manually above).
	out.TotalInstr = m.InstrCount

	if meanCPI := stats.ArithMean(cpis); meanCPI > 0 {
		out.MeanIPC = 1 / meanCPI
		// Delta method: d(1/x)/dx = -1/x², so spread in CPI space maps to
		// IPC space scaled by MeanIPC².
		out.IPCStdDev = stats.StdDev(cpis) * out.MeanIPC * out.MeanIPC
		out.IPCCI95 = stats.CI95(cpis) * out.MeanIPC * out.MeanIPC
	}
	out.Stats.IPC = out.MeanIPC
	// Skipped = everything the run covered that was not measured.
	if out.TotalInstr > out.Stats.Committed {
		out.Stats.Skipped = out.TotalInstr - out.Stats.Committed
	}
	out.DL1Miss = ratio(dl1Miss, dl1Acc)
	out.L2Local = ratio(l2Miss, l2Acc)
	out.TLBMiss = ratio(tlbMiss, tlbAcc)
	out.BrAcc = out.Stats.CondAccuracy()
	return out, nil
}

func intervalErr(k int, bench string, err error) error {
	return fmt.Errorf("sample: interval %d of %s: %w", k, bench, err)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
