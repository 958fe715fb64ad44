package bpred

// BTB is a set-associative branch target buffer mapping branch PCs to
// their taken targets. PCs are instruction indices.
type BTB struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	lru     []uint64
	assoc   int
	setMask uint64
	tick    uint64

	Lookups uint64
	Hits    uint64
}

// NewBTB builds a BTB with the given entry count and associativity.
func NewBTB(entries, assoc int) *BTB {
	nsets := entries / assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("bpred: BTB set count must be a positive power of two")
	}
	return &BTB{
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		valid:   make([]bool, entries),
		lru:     make([]uint64, entries),
		assoc:   assoc,
		setMask: uint64(nsets - 1),
	}
}

// Lookup returns the predicted target for pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.Lookups++
	b.tick++
	base := int(pc&b.setMask) * b.assoc
	for i := base; i < base+b.assoc; i++ {
		if b.valid[i] && b.tags[i] == pc {
			b.lru[i] = b.tick
			b.Hits++
			return b.targets[i], true
		}
	}
	return 0, false
}

// contains reports whether pc has an entry. Unlike Lookup it is a pure
// probe: it counts nothing and leaves the LRU state and tick untouched.
func (b *BTB) contains(pc uint64) bool {
	base := int(pc&b.setMask) * b.assoc
	for i := base; i < base+b.assoc; i++ {
		if b.valid[i] && b.tags[i] == pc {
			return true
		}
	}
	return false
}

// Insert records pc → target, replacing the LRU way of pc's set.
func (b *BTB) Insert(pc, target uint64) {
	b.tick++
	base := int(pc&b.setMask) * b.assoc
	victim := base
	for i := base; i < base+b.assoc; i++ {
		if b.valid[i] && b.tags[i] == pc {
			b.targets[i] = target
			b.lru[i] = b.tick
			return
		}
		if !b.valid[i] {
			victim = i
			break
		}
		if b.lru[i] < b.lru[victim] {
			victim = i
		}
	}
	b.tags[victim] = pc
	b.targets[victim] = target
	b.valid[victim] = true
	b.lru[victim] = b.tick
}

// RAS is a return-address stack with pointer-and-data repair: every
// speculative operation reports what it overwrote so a misprediction
// recovery can undo pushes and pops exactly (Skadron et al. [27]).
type RAS struct {
	stack []uint64
	top   int // index of the current top entry; -1 when empty wraps modulo
}

// NewRAS builds a return-address stack with n entries (circular).
func NewRAS(n int) *RAS {
	if n <= 0 {
		panic("bpred: RAS size must be positive")
	}
	return &RAS{stack: make([]uint64, n), top: 0}
}

// RASRepair is the pointer-and-data checkpoint of one speculative
// operation.
type RASRepair struct {
	Top     int16
	Slot    int16 // slot whose value was clobbered by a push; -1 otherwise
	SlotVal uint64
}

// Push speculatively pushes a return address and returns the repair record.
func (r *RAS) Push(addr uint64) RASRepair {
	rep := RASRepair{Top: int16(r.top), Slot: -1}
	r.top = (r.top + 1) % len(r.stack)
	rep.Slot = int16(r.top)
	rep.SlotVal = r.stack[r.top]
	r.stack[r.top] = addr
	return rep
}

// Pop speculatively pops the predicted return address and the repair
// record.
func (r *RAS) Pop() (uint64, RASRepair) {
	rep := RASRepair{Top: int16(r.top), Slot: -1}
	v := r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	return v, rep
}

// Repair undoes one speculative operation. Repairs must be applied
// youngest-first.
func (r *RAS) Repair(rep RASRepair) {
	if rep.Slot >= 0 {
		r.stack[rep.Slot] = rep.SlotVal
	}
	r.top = int(rep.Top)
}

// Top returns the current predicted return address without popping.
func (r *RAS) Top() uint64 { return r.stack[r.top] }
