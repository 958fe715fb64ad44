package trace

import (
	"fmt"
	"testing"

	"largewindow/internal/emu"
	"largewindow/internal/isa"
	"largewindow/internal/workload"
)

// stepRecord is the reference recorder: it drives the Step interpreter
// and derives each record by inspecting the source operands just before
// the step. Record must produce exactly its output from the predecoded
// loop's observed event stream.
func stepRecord(prog *isa.Program, maxInstr uint64) ([]Rec, *emu.Machine, error) {
	budget := maxInstr
	if budget == 0 {
		budget = 1 << 32
	}
	m := emu.New(prog)
	var recs []Rec
	for uint64(len(recs)) < budget && !m.Halted {
		pc := m.PC
		if pc >= uint64(len(prog.Code)) {
			return nil, nil, fmt.Errorf("pc %d outside code", pc)
		}
		in := prog.Code[pc]
		r := Rec{PC: pc, Class: in.Op.Class()}
		switch r.Class {
		case isa.ClassLoad, isa.ClassStore:
			r.HasMem = true
			r.Addr = isa.EffAddr(in, m.ReadReg(in.Src1()))
		case isa.ClassBranch:
			r.Taken = isa.BranchTaken(in, m.ReadReg(in.Src1()), m.ReadReg(in.Src2()))
		case isa.ClassJump:
			r.Taken = true
			if in.Op == isa.OpJr {
				r.HasTgt = true
				r.Target = m.ReadReg(in.Src1())
			}
		}
		if err := m.Step(); err != nil {
			return nil, nil, err
		}
		recs = append(recs, r)
	}
	return recs, m, nil
}

// TestRecordMatchesStepRecorder: records, instruction count, stream hash
// and halt state equal the reference recorder's, to halt and under a
// budget, across all three suites.
func TestRecordMatchesStepRecorder(t *testing.T) {
	for _, name := range []string{"gzip", "art", "treeadd"} {
		src, err := workload.ParseRef(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := src.Build(workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []uint64{0, 3_001} {
			tr, err := Record(src, workload.ScaleTest, budget)
			if err != nil {
				t.Fatal(err)
			}
			want, m, err := stepRecord(prog, budget)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Instrs != m.InstrCount || tr.StreamHash != m.StreamHash || tr.Halted != m.Halted {
				t.Errorf("%s/%d: instrs %d hash %#x halted %v, reference %d %#x %v", name, budget,
					tr.Instrs, tr.StreamHash, tr.Halted, m.InstrCount, m.StreamHash, m.Halted)
			}
			if len(tr.Records) != len(want) {
				t.Fatalf("%s/%d: %d records, reference %d", name, budget, len(tr.Records), len(want))
			}
			for i := range want {
				if tr.Records[i] != want[i] {
					t.Fatalf("%s/%d: record %d = %+v, reference %+v", name, budget, i, tr.Records[i], want[i])
				}
			}
		}
	}
}

// TestRecordDigestGolden pins the content digest of recorded traces. A
// trace's digest is its workload identity, which keys cached campaign
// cells: a recorder change that moved it would orphan every cached
// trace-driven cell.
func TestRecordDigestGolden(t *testing.T) {
	for _, c := range []struct {
		name   string
		scale  workload.Scale
		budget uint64
		digest string
	}{
		{"gzip", workload.ScaleTest, 0, "0c2bb1628ff5243f4c1303d6295127e5"},
		{"gzip", workload.ScaleRun, 200_000, "c3d23bc51546395745e716ebf7f11e32"},
		{"art", workload.ScaleTest, 0, "10d40d1a4e1b37ffb69e59f0b5e6fe14"},
		{"art", workload.ScaleRun, 200_000, "a5e57e0ff879673938844013ef0b6e16"},
		{"treeadd", workload.ScaleTest, 0, "634ff08c069da8deca0fea2a7354e431"},
		{"treeadd", workload.ScaleRun, 200_000, "97b9960edb52d75ec3ad5952efe9a208"},
	} {
		src, err := workload.ParseRef(c.name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Record(src, c.scale, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Digest(); got != c.digest {
			t.Errorf("%s at %s, budget %d: digest %s, golden %s", c.name, c.scale, c.budget, got, c.digest)
		}
	}
}
