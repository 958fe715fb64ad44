package emu

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"largewindow/internal/isa"
)

// event is one Observer callback, flattened so streams compare with ==.
type event struct {
	kind  byte // 'F' fetch, 'I' instr, 'M' mem, 'B' branch
	addr  uint64
	class isa.Class
	store bool
	br    WarmBranch
}

// eventLog is an Observer that records every callback in order.
type eventLog []event

func (l *eventLog) Fetch(line uint64) { *l = append(*l, event{kind: 'F', addr: line}) }
func (l *eventLog) Instr(pc uint64, c isa.Class) {
	*l = append(*l, event{kind: 'I', addr: pc, class: c})
}
func (l *eventLog) Mem(addr uint64, store bool) {
	*l = append(*l, event{kind: 'M', addr: addr, store: store})
}
func (l *eventLog) Branch(b WarmBranch) { *l = append(*l, event{kind: 'B', br: b}) }

// stepPeekEvents derives the Observer stream of a run split into chunks
// of the given size independently of the predecoded loop: it drives the
// reference Step interpreter and, before each step, peeks at the source
// operands through ReadReg to compute what the instruction will access.
// Fetch-line tracking restarts at every chunk boundary, as it does on
// every run call.
func stepPeekEvents(t *testing.T, prog *isa.Program, chunk int) eventLog {
	t.Helper()
	m := New(prog)
	var log eventLog
	last := ^uint64(0)
	for n := 0; !m.Halted; n++ {
		if n%chunk == 0 {
			last = ^uint64(0)
		}
		pc := m.PC
		in := prog.Code[pc]
		if line := (pc * 8) &^ 63; line != last {
			log.Fetch(line)
			last = line
		}
		log.Instr(pc, in.Op.Class())
		rs1, rs2 := m.ReadReg(in.Src1()), m.ReadReg(in.Src2())
		switch in.Op.Class() {
		case isa.ClassLoad:
			log.Mem(isa.EffAddr(in, rs1), false)
		case isa.ClassStore:
			log.Mem(isa.EffAddr(in, rs1), true)
		case isa.ClassBranch:
			taken := isa.BranchTaken(in, rs1, rs2)
			log.Branch(WarmBranch{PC: pc, Target: in.Target(pc), Taken: taken, Cond: true, BTB: taken})
		case isa.ClassJump:
			if in.Op == isa.OpJr {
				log.Branch(WarmBranch{PC: pc, Target: rs1, Taken: true})
			} else {
				log.Branch(WarmBranch{PC: pc, Target: in.Target(pc), Taken: true, BTB: true})
			}
		}
		if err := m.Step(); err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
	}
	return log
}

// TestObserverStreamMatchesStepPeeking: the event stream RunObserved
// reports equals the one derived from the reference interpreter, both
// for a single call and for a run split into many calls.
func TestObserverStreamMatchesStepPeeking(t *testing.T) {
	for _, prog := range checkpointZoo() {
		for _, chunk := range []int{1 << 30, 37} {
			want := stepPeekEvents(t, prog, chunk)
			var got eventLog
			m := New(prog)
			for !m.Halted {
				if _, err := m.RunObserved(uint64(chunk), &got); err != nil && !errors.Is(err, ErrNotHalted) {
					t.Fatalf("%s: %v", prog.Name, err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s/chunk %d: %d events, want %d", prog.Name, chunk, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/chunk %d: event %d = %+v, want %+v", prog.Name, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDecodeTableDoesNotPinProgram: once a machine that ran a program is
// dropped, nothing in the package keeps the program (and with it its
// data image) reachable.
func TestDecodeTableDoesNotPinProgram(t *testing.T) {
	collected := make(chan struct{})
	func() {
		prog := iterativeFactorial(10)
		runtime.SetFinalizer(prog, func(*isa.Program) { close(collected) })
		if _, err := New(prog).Run(1 << 20); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("program still reachable after its machine was dropped")
}
