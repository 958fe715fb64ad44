package emu

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"largewindow/internal/isa"
	"largewindow/internal/schema"
)

// This file implements full restorable checkpoints: the complete
// architectural state of a functional run (registers, memory image,
// PC/instruction count, stream hash) plus a bounded log of the recent
// access stream for warming a timing core's caches, TLB, and branch
// predictor. A checkpoint depends only on (program, skip count) — never
// on a processor configuration — so one functional pass is shared by
// every configuration measuring the same window (gem5's
// AtomicSimpleCPU→O3CPU switch, SimpleScalar's sim-outorder fastfwd).

// Default warm-ring capacities. The rings only need to cover the largest
// structures they warm: 32K data accesses comfortably refill a 256KB L2
// (4K lines) and the D-TLB, 8K fetch lines cover any L1I, and 16K branch
// outcomes saturate 4K-entry direction tables and a 2K-entry BTB.
const (
	DefaultWarmMem    = 32768
	DefaultWarmFetch  = 8192
	DefaultWarmBranch = 16384
)

// ring64 is a bounded overwrite-oldest ring of uint64 samples.
type ring64 struct {
	buf []uint64
	max int
	n   uint64 // total pushes ever
}

func newRing64(max int) ring64 { return ring64{max: max} }

func (r *ring64) push(v uint64) {
	if r.max <= 0 {
		return
	}
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
	} else {
		r.buf[int(r.n)%r.max] = v
	}
	r.n++
}

// seq returns the retained samples oldest-first.
func (r *ring64) seq() []uint64 {
	if r.n <= uint64(len(r.buf)) {
		return append([]uint64(nil), r.buf...)
	}
	i := int(r.n) % r.max
	out := make([]uint64, 0, len(r.buf))
	out = append(out, r.buf[i:]...)
	out = append(out, r.buf[:i]...)
	return out
}

// WarmBranch is one recorded control-transfer outcome. BTB marks
// transfers that train the branch target buffer at commit (taken, and not
// an indirect jump — mirroring Predictor.Commit).
type WarmBranch struct {
	PC     uint64
	Target uint64
	Taken  bool
	Cond   bool // conditional branch: trains the direction tables
	BTB    bool
}

// branchRing is a bounded overwrite-oldest ring of branch outcomes.
type branchRing struct {
	buf []WarmBranch
	max int
	n   uint64
}

func (r *branchRing) push(b WarmBranch) {
	if r.max <= 0 {
		return
	}
	if len(r.buf) < r.max {
		r.buf = append(r.buf, b)
	} else {
		r.buf[int(r.n)%r.max] = b
	}
	r.n++
}

func (r *branchRing) seq() []WarmBranch {
	if r.n <= uint64(len(r.buf)) {
		return append([]WarmBranch(nil), r.buf...)
	}
	i := int(r.n) % r.max
	out := make([]WarmBranch, 0, len(r.buf))
	out = append(out, r.buf[i:]...)
	out = append(out, r.buf[:i]...)
	return out
}

// WarmLog captures the tail of a functional run's access stream in three
// bounded rings: data accesses (address plus load/store kind),
// instruction-fetch line addresses, and branch outcomes. The rings are
// configuration-independent — they record WHAT the program touched, and
// Replay trains whatever geometry the restoring configuration has.
type WarmLog struct {
	mem    ring64 // addr<<1 | storeBit (data addresses are 8-byte aligned)
	fetch  ring64 // 64-byte-aligned instruction line addresses
	branch branchRing
}

// NewWarmLog builds a warm log with the given ring capacities (entries).
// Zero or negative capacity disables that ring.
func NewWarmLog(memCap, fetchCap, branchCap int) *WarmLog {
	return &WarmLog{
		mem:    newRing64(memCap),
		fetch:  newRing64(fetchCap),
		branch: branchRing{max: branchCap},
	}
}

// Counts reports how many samples of each kind were recorded in total
// (including ones the bounded rings have since overwritten).
func (w *WarmLog) Counts() (mem, fetch, branch uint64) {
	return w.mem.n, w.fetch.n, w.branch.n
}

// WarmLog is an Observer: the emulator's run loop records into its rings
// through the same interface a live cache/predictor adapter implements,
// so ring capture and full-history streaming share one code path.

// Fetch records an instruction-fetch line address.
func (w *WarmLog) Fetch(line uint64) { w.fetch.push(line) }

// Instr ignores the per-instruction event: the rings keep only the
// access stream.
func (w *WarmLog) Instr(uint64, isa.Class) {}

// Mem records a data access address and its kind.
func (w *WarmLog) Mem(addr uint64, store bool) {
	if store {
		w.mem.push(addr<<1 | 1)
	} else {
		w.mem.push(addr << 1)
	}
}

// Branch records a control-transfer outcome.
func (w *WarmLog) Branch(b WarmBranch) { w.branch.push(b) }

// Replay feeds the retained access stream into an observer, oldest-first
// per ring (fetch lines, then data accesses, then branches). Instr is
// never called: the rings do not retain per-instruction events.
func (w *WarmLog) Replay(o Observer) {
	if w == nil {
		return
	}
	for _, a := range w.fetch.seq() {
		o.Fetch(a)
	}
	for _, a := range w.mem.seq() {
		o.Mem(a>>1, a&1 == 1)
	}
	for _, b := range w.branch.seq() {
		o.Branch(b)
	}
}

// Checkpoint is the full restorable state of a functional run: enough to
// reconstruct a Machine mid-execution exactly (unlike State, which is a
// comparable digest with only a memory checksum). Checkpoints serialize
// to schema-versioned JSON (schema.CheckpointVersion) for the campaign
// store.
type Checkpoint struct {
	Bench      string // program name, guarded at restore
	PC         uint64
	InstrCount uint64
	Halted     bool
	StreamHash uint64
	TakenCond  uint64
	CondCount  uint64
	IntReg     [isa.NumRegs]uint64
	FPReg      [isa.NumRegs]uint64
	ClassMix   [isa.NumClasses]uint64
	Mem        *isa.Memory
	Warm       *WarmLog // may be nil (no warm capture)
}

// Checkpoint captures the machine's complete architectural state. The
// memory image is a frozen copy-on-write snapshot — O(pages) to take, not
// O(bytes) — so the machine may keep running (its first write to each
// page copies it) and the checkpoint may be restored concurrently.
func (m *Machine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Bench:      m.Prog.Name,
		PC:         m.PC,
		InstrCount: m.InstrCount,
		Halted:     m.Halted,
		StreamHash: m.StreamHash,
		TakenCond:  m.TakenCond,
		CondCount:  m.CondCount,
		IntReg:     m.IntReg,
		FPReg:      m.FPReg,
		ClassMix:   m.ClassMix,
		Mem:        m.Mem.Clone(),
	}
	cp.Mem.Freeze()
	return cp
}

// Restore reconstructs a Machine at the checkpointed state, running the
// given program (which must be the same program the checkpoint was taken
// from — the name is checked; byte-level identity is the caller's
// responsibility, as programs are built deterministically from
// (benchmark, scale)). The checkpoint's memory image is deep-copied.
func Restore(prog *isa.Program, cp *Checkpoint) (*Machine, error) {
	if cp.Bench != "" && prog.Name != cp.Bench {
		return nil, fmt.Errorf("emu: checkpoint for %q restored onto program %q", cp.Bench, prog.Name)
	}
	if !cp.Halted && cp.PC >= uint64(len(prog.Code)) {
		return nil, fmt.Errorf("emu: checkpoint pc %d outside code segment (len %d)", cp.PC, len(prog.Code))
	}
	m := &Machine{
		Prog:       prog,
		Mem:        cp.Mem.Clone(),
		PC:         cp.PC,
		Halted:     cp.Halted,
		InstrCount: cp.InstrCount,
		ClassMix:   cp.ClassMix,
		TakenCond:  cp.TakenCond,
		CondCount:  cp.CondCount,
		StreamHash: cp.StreamHash,
		IntReg:     cp.IntReg,
		FPReg:      cp.FPReg,
	}
	return m, nil
}

// BuildCheckpoint runs a fresh machine for skip instructions on the warm-
// capturing fast path and checkpoints the result. A program that halts
// before the skip target yields a halted checkpoint (the measured window
// is then empty); only genuine execution faults return an error.
func BuildCheckpoint(prog *isa.Program, skip uint64) (*Checkpoint, error) {
	m := New(prog)
	w := NewWarmLog(DefaultWarmMem, DefaultWarmFetch, DefaultWarmBranch)
	if skip > 0 {
		if _, err := m.run(skip, w); err != nil && !errors.Is(err, ErrNotHalted) {
			return nil, fmt.Errorf("emu: fast-forward of %s: %w", prog.Name, err)
		}
	}
	cp := m.Checkpoint()
	cp.Warm = w
	return cp, nil
}

// --- JSON encoding -----------------------------------------------------

// pageWire is one memory page: its index and the base64 of its words in
// little-endian order.
type pageWire struct {
	Index uint64 `json:"i"`
	Words string `json:"w"`
}

// checkpointWire is the serialized checkpoint form. Rings are linearized
// oldest-first and packed as base64 little-endian uint64 streams; branch
// records pack (pc, target, flags) as three words each.
type checkpointWire struct {
	SchemaVersion int    `json:"schema_version"`
	Bench         string `json:"bench"`
	PC            uint64 `json:"pc"`
	InstrCount    uint64 `json:"instr_count"`
	Halted        bool   `json:"halted,omitempty"`
	StreamHash    uint64 `json:"stream_hash"`
	TakenCond     uint64 `json:"taken_cond"`
	CondCount     uint64 `json:"cond_count"`

	IntReg   []uint64 `json:"int_reg"`
	FPReg    []uint64 `json:"fp_reg"`
	ClassMix []uint64 `json:"class_mix"`

	Pages []pageWire `json:"pages"`

	WarmCaps   []int  `json:"warm_caps,omitempty"` // mem, fetch, branch ring capacities
	WarmMem    string `json:"warm_mem,omitempty"`
	WarmFetch  string `json:"warm_fetch,omitempty"`
	WarmBranch string `json:"warm_branch,omitempty"`
}

// packWords encodes a uint64 slice as base64(little-endian bytes).
func packWords(ws []uint64) string {
	buf := make([]byte, 8*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// unpackWords decodes packWords output.
func unpackWords(s string) ([]uint64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("emu: packed word stream of %d bytes", len(buf))
	}
	out := make([]uint64, len(buf)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return out, nil
}

// MarshalJSON stamps the checkpoint with the current schema version.
func (cp *Checkpoint) MarshalJSON() ([]byte, error) {
	w := checkpointWire{
		SchemaVersion: schema.CheckpointVersion,
		Bench:         cp.Bench,
		PC:            cp.PC,
		InstrCount:    cp.InstrCount,
		Halted:        cp.Halted,
		StreamHash:    cp.StreamHash,
		TakenCond:     cp.TakenCond,
		CondCount:     cp.CondCount,
		IntReg:        cp.IntReg[:],
		FPReg:         cp.FPReg[:],
		ClassMix:      cp.ClassMix[:],
	}
	if cp.Mem != nil {
		for _, idx := range cp.Mem.PageList() {
			w.Pages = append(w.Pages, pageWire{Index: idx, Words: packWords(cp.Mem.PageWords(idx))})
		}
	}
	if cp.Warm != nil {
		w.WarmCaps = []int{cp.Warm.mem.max, cp.Warm.fetch.max, cp.Warm.branch.max}
		w.WarmMem = packWords(cp.Warm.mem.seq())
		w.WarmFetch = packWords(cp.Warm.fetch.seq())
		br := cp.Warm.branch.seq()
		packed := make([]uint64, 0, 3*len(br))
		for _, b := range br {
			var flags uint64
			if b.Taken {
				flags |= 1
			}
			if b.Cond {
				flags |= 2
			}
			if b.BTB {
				flags |= 4
			}
			packed = append(packed, b.PC, b.Target, flags)
		}
		w.WarmBranch = packWords(packed)
	}
	return json.Marshal(&w)
}

// UnmarshalJSON decodes a checkpoint, rejecting schema versions newer
// than this reader understands.
func (cp *Checkpoint) UnmarshalJSON(data []byte) error {
	var w checkpointWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if err := schema.Check(w.SchemaVersion, schema.CheckpointVersion, "emu checkpoint"); err != nil {
		return err
	}
	out := Checkpoint{
		Bench:      w.Bench,
		PC:         w.PC,
		InstrCount: w.InstrCount,
		Halted:     w.Halted,
		StreamHash: w.StreamHash,
		TakenCond:  w.TakenCond,
		CondCount:  w.CondCount,
		Mem:        isa.NewMemory(),
	}
	if len(w.IntReg) > isa.NumRegs || len(w.FPReg) > isa.NumRegs || len(w.ClassMix) > isa.NumClasses {
		return fmt.Errorf("emu: checkpoint register/class arrays too long (%d/%d/%d)",
			len(w.IntReg), len(w.FPReg), len(w.ClassMix))
	}
	copy(out.IntReg[:], w.IntReg)
	copy(out.FPReg[:], w.FPReg)
	copy(out.ClassMix[:], w.ClassMix)
	for _, pg := range w.Pages {
		words, err := unpackWords(pg.Words)
		if err != nil {
			return fmt.Errorf("emu: checkpoint page %d: %w", pg.Index, err)
		}
		if len(words) != isa.PageBytes/8 {
			return fmt.Errorf("emu: checkpoint page %d has %d words", pg.Index, len(words))
		}
		out.Mem.SetPage(pg.Index, words)
	}
	// Decoded checkpoints are shared across concurrent restorers exactly
	// like freshly built ones; freeze the image so COW clones are safe.
	out.Mem.Freeze()
	if len(w.WarmCaps) == 3 {
		warm := NewWarmLog(w.WarmCaps[0], w.WarmCaps[1], w.WarmCaps[2])
		mem, err := unpackWords(w.WarmMem)
		if err != nil {
			return fmt.Errorf("emu: checkpoint warm mem ring: %w", err)
		}
		for _, v := range mem {
			warm.mem.push(v)
		}
		fetch, err := unpackWords(w.WarmFetch)
		if err != nil {
			return fmt.Errorf("emu: checkpoint warm fetch ring: %w", err)
		}
		for _, v := range fetch {
			warm.fetch.push(v)
		}
		br, err := unpackWords(w.WarmBranch)
		if err != nil {
			return fmt.Errorf("emu: checkpoint warm branch ring: %w", err)
		}
		if len(br)%3 != 0 {
			return fmt.Errorf("emu: checkpoint warm branch ring of %d words", len(br))
		}
		for i := 0; i < len(br); i += 3 {
			flags := br[i+2]
			warm.branch.push(WarmBranch{
				PC: br[i], Target: br[i+1],
				Taken: flags&1 != 0, Cond: flags&2 != 0, BTB: flags&4 != 0,
			})
		}
		out.Warm = warm
	}
	*cp = out
	return nil
}
