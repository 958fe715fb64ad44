package bpred

import (
	"testing"

	"largewindow/internal/isa"
)

// TestWarmBranchCountsNothing: warming a measured predictor through
// ProfileBranch counts no predictions and no BTB lookups, and its BTB
// probe leaves the LRU clock to the inserts alone.
func TestWarmBranchCountsNothing(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 8; i++ {
		p.ProfileBranch(40, 42, true, true, true)
	}
	if p.Predicts != 0 {
		t.Errorf("warm branches counted as predicts: %d", p.Predicts)
	}
	if l, h := p.BTBStats(); l != 0 || h != 0 {
		t.Errorf("warm branches counted BTB lookups: (%d,%d)", l, h)
	}
	if p.btb.tick != 8 {
		t.Errorf("BTB tick = %d after 8 warm inserts; the miss probe touched the LRU clock", p.btb.tick)
	}
}

// TestProfileBranchReportsOutcome: the profiler's view — a cold BTB
// misses once and then hits, and a trained direction stops mispredicting.
func TestProfileBranchReportsOutcome(t *testing.T) {
	p := New(DefaultConfig())
	if _, miss := p.ProfileBranch(5, 16, true, false, true); !miss {
		t.Error("cold BTB reported a hit")
	}
	if _, miss := p.ProfileBranch(5, 16, true, false, true); miss {
		t.Error("BTB missed a just-inserted target")
	}
	var mis bool
	for i := 0; i < 8; i++ {
		mis, _ = p.ProfileBranch(40, 42, true, true, true)
	}
	if mis {
		t.Error("always-taken branch still mispredicts after training")
	}
}

func TestWarmBranchTrainsDirection(t *testing.T) {
	p := New(DefaultConfig())
	in := condBr(1)
	// Warm an always-taken branch, then the first demand prediction must
	// already be taken — the point of warming.
	for i := 0; i < 8; i++ {
		p.ProfileBranch(40, 42, true, true, true)
	}
	pr, _ := p.Predict(40, in)
	if !pr.Taken {
		t.Error("warm-trained always-taken branch predicted not-taken")
	}
	// And the other direction.
	for i := 0; i < 8; i++ {
		p.ProfileBranch(80, 0, false, true, false)
	}
	pr, _ = p.Predict(80, in)
	if pr.Taken {
		t.Error("warm-trained never-taken branch predicted taken")
	}
}

func TestWarmBranchInsertsBTB(t *testing.T) {
	p := New(DefaultConfig())
	in := isa.Instr{Op: isa.OpJ, Imm: 10}
	p.ProfileBranch(5, 16, true, false, true)
	pr, _ := p.Predict(5, in)
	if !pr.BTBHit {
		t.Error("BTB miss after warm insert")
	}
}

func TestWarmBranchBTBFlagGates(t *testing.T) {
	// An indirect jump is recorded with BTB=false (mirroring Commit's
	// taken && !Jr rule) and must not pollute the BTB.
	p := New(DefaultConfig())
	p.ProfileBranch(7, 99, true, false, false)
	pr, _ := p.Predict(7, isa.Instr{Op: isa.OpJ, Imm: 10})
	if pr.BTBHit {
		t.Error("BTB=false warm record inserted into the BTB")
	}
}

func TestWarmBranchGHRShiftsOnlyOnCond(t *testing.T) {
	p := New(DefaultConfig())
	g0 := p.GHR()
	p.ProfileBranch(5, 16, true, false, true) // unconditional: no history shift
	if p.GHR() != g0 {
		t.Error("unconditional warm branch shifted the GHR")
	}
	p.ProfileBranch(40, 42, true, true, true) // conditional taken: shift in 1
	if p.GHR() != ((g0<<1)|1)&p.ghrMask {
		t.Errorf("GHR after warm cond taken = %b", p.GHR())
	}
}
