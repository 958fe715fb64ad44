package main

import (
	"fmt"
	"sort"

	"largewindow/internal/emu"
	"largewindow/internal/trace"
	"largewindow/internal/workload"
)

// recordLimit bounds the instruction counts checked through trace.Record,
// which keeps every dynamic record in memory. Longer prefixes — sampled
// cells end deep into a program, whole-program truth runs to halt — are
// hashed by running the emulator itself, which computes the same hash.
const recordLimit = 1 << 20

// streamHashes memoizes the functional emulator's committed-PC stream
// hash per (kernel, instruction count).
type streamHashes struct {
	memo map[string]uint64
}

func newStreamHashes() *streamHashes { return &streamHashes{memo: map[string]uint64{}} }

func (h *streamHashes) hash(bench string, n uint64) (uint64, error) {
	key := fmt.Sprintf("%s/%d", bench, n)
	if v, ok := h.memo[key]; ok {
		return v, nil
	}
	src, err := workload.ParseRef(workload.SchemeBench + ":" + bench)
	if err != nil {
		return 0, err
	}
	var v uint64
	if n <= recordLimit {
		t, err := trace.Record(src, scale, n)
		if err != nil {
			return 0, err
		}
		if t.Instrs != n {
			return 0, fmt.Errorf("trace.Record of %s stopped at %d of %d instructions", bench, t.Instrs, n)
		}
		v = t.StreamHash
	} else {
		prog, err := src.Build(scale)
		if err != nil {
			return 0, err
		}
		m := emu.New(prog)
		got, err := m.Run(n)
		if err != nil && got != n {
			return 0, fmt.Errorf("emulating %s: %w", bench, err)
		}
		v = m.StreamHash
	}
	h.memo[key] = v
	return v, nil
}

// check returns why a cell failed, or "" for a good cell: it must have
// succeeded, and its committed stream must hash like the emulator's over
// the same instructions. A sampled cell's hash is that of the stream up
// to the end of its last window, so it is compared at Committed+Skipped.
func (h *streamHashes) check(c cellSpan) string {
	if c.err != nil {
		return c.err.Error()
	}
	st := c.rec.Stats
	n := st.Committed + st.Skipped
	want, err := h.hash(c.bench, n)
	if err != nil {
		return err.Error()
	}
	if st.StreamHash != want {
		return fmt.Sprintf("stream hash %016x, emulator gives %016x after %d instructions", st.StreamHash, want, n)
	}
	return ""
}

// checkCells checks every cell of one campaign and returns one message
// per failed cell. pinned, when non-nil, holds the digests the cells
// must reproduce; a cell missing from it fails too.
func checkCells(cells []cellSpan, hashes *streamHashes, pinned map[string]cellRef) []string {
	var fails []string
	for _, c := range cells {
		why := hashes.check(c)
		if why == "" && pinned != nil {
			want, ok := pinned[c.key()]
			switch {
			case !ok:
				why = "no pinned digest for this cell"
			case digest(c.rec) != want.Digest:
				why = fmt.Sprintf("digest %s, pinned %s (cycles %d, pinned %d)", digest(c.rec), want.Digest, c.rec.Stats.Cycles, want.Cycles)
			}
		}
		if why != "" {
			fails = append(fails, c.key()+": "+why)
		}
	}
	sort.Strings(fails)
	return fails
}
