package emu

import (
	"fmt"

	"largewindow/internal/isa"
)

// decoded is the predecoded form of one static instruction: everything
// Step re-derives per dynamic execution (functional-unit class, operand
// register references, the direct branch target) is resolved once per
// static instruction instead.
type decoded struct {
	op     isa.Op
	class  isa.Class
	src1   isa.RegRef
	src2   isa.RegRef
	dest   isa.RegRef
	target uint64 // absolute taken target for Branch/J/Jal (pc+1+imm)
}

// predecode builds the decode table of a code segment. The table belongs
// to the Machine that built it, so it lives exactly as long as the
// machine does — a process-wide cache keyed by program would pin every
// program ever run, data image included.
func predecode(code []isa.Instr) []decoded {
	t := make([]decoded, len(code))
	for pc, in := range code {
		d := &t[pc]
		d.op = in.Op
		d.class = in.Op.Class()
		d.src1 = in.Src1()
		d.src2 = in.Src2()
		d.dest = in.Dest()
		switch d.class {
		case isa.ClassBranch:
			d.target = in.Target(uint64(pc))
		case isa.ClassJump:
			if in.Op != isa.OpJr {
				d.target = in.Target(uint64(pc))
			}
		}
	}
	return t
}

// Observer receives the architectural event stream of a run, in program
// order. For every retired instruction: Fetch when its instruction-fetch
// line differs from the previous instruction's (the first instruction of
// every run call counts as a new line), then Instr, then Mem for a load
// or store or Branch for a control transfer. One stream serves every
// consumer of the functional tier: a WarmLog's bounded rings for
// checkpoint capture, a live cache/predictor adapter for full-history
// warming, the trace recorder, and the interval-model profiler.
type Observer interface {
	// Fetch is called with the 64-byte-aligned byte address of a newly
	// entered instruction-fetch line.
	Fetch(line uint64)
	// Instr is called once per retired instruction with its static index
	// and functional-unit class.
	Instr(pc uint64, class isa.Class)
	// Mem is called for loads and stores with the effective byte address.
	Mem(addr uint64, store bool)
	// Branch is called for every control transfer with its architectural
	// outcome (Cond for conditional branches, BTB for transfers that
	// train the BTB at commit).
	Branch(b WarmBranch)
}

// run is the predecoded hot loop behind Run and RunObserved: identical
// architectural semantics to a Step loop (the equivalence is property-
// tested), but with the per-step class/operand re-derivation hoisted into
// the decode table. Hot state (PC, stream hash, class counts) lives in
// locals and is flushed back to the Machine on every exit path.
//
// When obs is non-nil the loop reports every instruction to it (see
// Observer). Fetch-line tracking restarts on every call, so a run split
// into several calls reports the same stream regardless of where the
// splits fall relative to sampling intervals.
func (m *Machine) run(maxInstr uint64, obs Observer) (uint64, error) {
	if m.dec == nil {
		m.dec = predecode(m.Prog.Code)
	}
	dec := m.dec
	code := m.Prog.Code
	var classCnt [isa.NumClasses]uint64
	pc := m.PC
	hash := m.StreamHash
	takenCond, condCount := m.TakenCond, m.CondCount
	var count uint64
	lastFetchLine := ^uint64(0)

	flush := func() {
		m.PC = pc
		m.StreamHash = hash
		m.TakenCond, m.CondCount = takenCond, condCount
		m.InstrCount += count
		for c, n := range classCnt {
			m.ClassMix[c] += n
		}
	}

	for !m.Halted && count < maxInstr {
		if pc >= uint64(len(dec)) {
			flush()
			return count, fmt.Errorf("emu: pc %d outside code segment (len %d)", pc, len(dec))
		}
		d := &dec[pc]
		count++
		classCnt[d.class]++
		hash = mixHash(hash, pc)
		if obs != nil {
			if line := (pc * 8) &^ 63; line != lastFetchLine {
				obs.Fetch(line)
				lastFetchLine = line
			}
			obs.Instr(pc, d.class)
		}

		var rs1, rs2 uint64
		if r := d.src1; r.Valid {
			if r.FP {
				rs1 = m.FPReg[r.N]
			} else if r.N != isa.Zero {
				rs1 = m.IntReg[r.N]
			}
		}
		if r := d.src2; r.Valid {
			if r.FP {
				rs2 = m.FPReg[r.N]
			} else if r.N != isa.Zero {
				rs2 = m.IntReg[r.N]
			}
		}
		next := pc + 1

		switch d.class {
		case isa.ClassLoad:
			addr := isa.EffAddr(code[pc], rs1)
			m.writeDest(d.dest, m.Mem.ReadWord(addr))
			if obs != nil {
				obs.Mem(addr, false)
			}
		case isa.ClassStore:
			addr := isa.EffAddr(code[pc], rs1)
			m.Mem.WriteWord(addr, rs2)
			if obs != nil {
				obs.Mem(addr, true)
			}
		case isa.ClassBranch:
			condCount++
			taken := isa.BranchTaken(code[pc], rs1, rs2)
			if taken {
				takenCond++
				next = d.target
			}
			if obs != nil {
				obs.Branch(WarmBranch{PC: pc, Target: d.target, Taken: taken, Cond: true, BTB: taken})
			}
		case isa.ClassJump:
			switch d.op {
			case isa.OpJr:
				next = rs1
				if obs != nil {
					obs.Branch(WarmBranch{PC: pc, Target: rs1, Taken: true})
				}
			case isa.OpJal:
				m.writeDest(d.dest, isa.Eval(code[pc], rs1, rs2, pc))
				next = d.target
				if obs != nil {
					obs.Branch(WarmBranch{PC: pc, Target: d.target, Taken: true, BTB: true})
				}
			default: // OpJ
				next = d.target
				if obs != nil {
					obs.Branch(WarmBranch{PC: pc, Target: d.target, Taken: true, BTB: true})
				}
			}
		case isa.ClassHalt:
			m.Halted = true
			flush()
			return count, nil
		case isa.ClassNop:
			// nothing
		default:
			m.writeDest(d.dest, isa.Eval(code[pc], rs1, rs2, pc))
		}
		pc = next
	}
	flush()
	if !m.Halted {
		return count, ErrNotHalted
	}
	return count, nil
}
