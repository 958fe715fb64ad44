package harness

import (
	"context"
	"errors"

	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/sample"
)

// Region is one measured region of a program on the detailed core: a
// contiguous run from the program start or from a functional checkpoint,
// or a SMARTS-style set of sampled windows.
type Region struct {
	// Checkpoint is the functional state the run starts from (nil = the
	// program start).
	Checkpoint *emu.Checkpoint
	// MaxInstr and MaxCycles bound the run (0 = unbounded). Under
	// Sampling, MaxInstr does not apply and MaxCycles bounds each window.
	MaxInstr  uint64
	MaxCycles int64
	// Sampling, when non-nil, measures the region as sampled windows
	// (internal/sample). Checkpoint and Setup do not apply: the plan
	// places the windows, and the core is recreated per window.
	Sampling *sample.Plan
	// Setup, when non-nil, receives the fresh processor after the
	// checkpoint restore, before the run: it attaches telemetry or test
	// hooks and may keep p for reports (its Statistics are final when
	// Simulate returns, on failure too). An error aborts the run.
	Setup func(p *core.Processor) error
	// Progress receives sampled-window completions (nil = none).
	Progress sample.Progress
	// Bench and Scale name the workload in a failed run's SimError
	// (empty Bench leaves the error untagged).
	Bench, Scale string
}

// Simulate runs one measured region of prog under cfg until it halts,
// exhausts its budget, or ctx is done. It is the one place a region is
// run: campaign cells, the public facade and wibsim all measure through
// it. An exhausted budget is a success with Halted == false; a failure's
// SimError is tagged with the region's Bench and Scale. A detailed
// region reports its core's Stats and miss ratios, a sampled one the
// sample package's aggregate; either way Stats.IPC is the region's IPC.
func Simulate(ctx context.Context, cfg core.Config, prog *isa.Program, r Region) (out *sample.Outcome, err error) {
	if r.Sampling != nil {
		out, err = sample.Run(ctx, cfg, prog, *r.Sampling, r.MaxCycles, r.Progress)
	} else {
		out, err = runDetailed(ctx, cfg, prog, r)
	}
	var se *core.SimError
	if r.Bench != "" && errors.As(err, &se) {
		se.Bench, se.Scale = r.Bench, r.Scale
	}
	return out, err
}

// runDetailed is Simulate's contiguous-region case.
func runDetailed(ctx context.Context, cfg core.Config, prog *isa.Program, r Region) (*sample.Outcome, error) {
	p, err := core.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	if r.Checkpoint != nil {
		if err := p.RestoreCheckpoint(r.Checkpoint); err != nil {
			return nil, err
		}
	}
	if r.Setup != nil {
		if err := r.Setup(p); err != nil {
			return nil, err
		}
	}
	st, err := p.RunContext(ctx, r.MaxInstr, r.MaxCycles)
	if err != nil && !errors.Is(err, core.ErrBudget) {
		return nil, err
	}
	h := p.Hierarchy()
	return &sample.Outcome{
		Stats:   *st,
		DL1Miss: h.L1DStats().MissRatio(),
		L2Local: h.L2Stats().MissRatio(),
		TLBMiss: h.TLBMissRatio(),
		BrAcc:   st.CondAccuracy(),
		Halted:  err == nil,
	}, nil
}
