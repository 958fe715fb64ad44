package bpred

// ProfileBranch trains the predictor with one architectural branch
// outcome from a functional pass, as if the branch had been predicted and
// committed: conditional branches update the direction tables and shift
// the global history; taken transfers that would train the BTB at commit
// (everything but indirect jumps) insert their target. Nothing is
// counted — Predicts and the BTB lookup counters must reflect only the
// measured region — so warming a measured predictor is stat-free. The
// RAS is not trained: call depth at a checkpoint is unknown from the
// bounded branch ring alone, and the RAS repairs itself within a few
// calls of resuming.
//
// It first asks the warmed predictor what it would have guessed,
// reporting a direction mispredict (conditional branches) and a BTB
// target miss (taken transfers that train the BTB). The interval-model
// profiler (internal/model) counts mispredict events from these; warming
// callers drop them.
func (p *Predictor) ProfileBranch(pc, target uint64, taken, cond, btb bool) (mispredict, btbMiss bool) {
	if cond {
		pred, bim, glob := p.comb.Lookup(pc, p.ghr)
		mispredict = pred != taken
		p.comb.Update(pc, p.ghr, taken, bim, glob)
		p.ghr = (p.ghr<<1 | b2u32(taken)) & p.ghrMask
	}
	if btb && taken {
		btbMiss = !p.btb.contains(pc)
		p.btb.Insert(pc, target)
	}
	return mispredict, btbMiss
}
