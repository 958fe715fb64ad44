package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"largewindow/internal/campaign"
	"largewindow/internal/core"
	"largewindow/internal/harness"
)

// cellRef pins one simulated cell: its cycle and instruction counts,
// IPC, and a digest over every simulated statistic.
type cellRef struct {
	Cycles    int64   `json:"cycles"`
	Committed uint64  `json:"committed"`
	IPC       float64 `json:"ipc"`
	Digest    string  `json:"digest"`
}

// reference is the pinned reference file (reference.json).
type reference struct {
	DefaultSeed    uint64 `json:"default_seed"`
	DetailedBudget uint64 `json:"detailed_budget"`
	// PaperFig4WIBPct is the paper's Figure 4 suite-average WIB speedup
	// over the base machine, in percent, keyed by suite name.
	PaperFig4WIBPct map[string]float64 `json:"paper_fig4_wib_pct"`
	// Cells holds, per workload, the digest of every cell it can run at
	// the default seed. For explore-pruned it covers the whole grid, and
	// doubles as the full-detail truth the model is scored against.
	Cells map[string]map[string]cellRef `json:"cells"`
	// WholeProgram is full-detail truth for the Figure 4 cells, each
	// kernel simulated to completion.
	WholeProgram map[string]cellRef `json:"whole_program"`
}

// loadReference reads a reference recorded at the benchmark's current
// default seed and detailed budget.
func loadReference(path string) (*reference, error) {
	ref, err := readReference(path)
	if err != nil {
		return nil, err
	}
	if ref.DefaultSeed != defaultSeed || ref.DetailedBudget != detailedBudget {
		return nil, fmt.Errorf("reference %s was recorded at seed %d, budget %d; the benchmark uses seed %d, budget %d (run with -regen)",
			path, ref.DefaultSeed, ref.DetailedBudget, defaultSeed, detailedBudget)
	}
	return ref, nil
}

func readReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parsing reference %s: %w", path, err)
	}
	return &ref, nil
}

func (r *reference) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digest hashes a record's simulated results: the full Stats (including
// the accumulators behind the derived averages), the IPC estimate and
// its interval statistics, and the cache miss ratios.
func digest(rec *campaign.Record) string {
	data, err := json.Marshal(struct {
		Stats     core.Stats
		IPC       float64
		CI95      float64
		Intervals int
		DL1, L2   float64
	}{rec.Stats, rec.IPC, rec.IPCCI95, rec.Intervals, rec.DL1Miss, rec.L2Local})
	if err != nil {
		panic(err) // Stats always marshals
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

func refOf(rec *campaign.Record) cellRef {
	return cellRef{Cycles: rec.Stats.Cycles, Committed: rec.Stats.Committed, IPC: rec.IPC, Digest: digest(rec)}
}

// regenerate recomputes every pinned value, checks the new cells'
// stream hashes against the emulator, writes the file and prints what
// changed against the previous one.
func regenerate(path string) error {
	ref := &reference{
		DefaultSeed:     defaultSeed,
		DetailedBudget:  detailedBudget,
		PaperFig4WIBPct: map[string]float64{"SPEC-INT": 20, "SPEC-FP": 84, "Olden": 50},
		Cells:           map[string]map[string]cellRef{},
		WholeProgram:    map[string]cellRef{},
	}
	hashes := newStreamHashes()
	for _, wl := range workloads {
		p, err := wl.prepare(defaultSeed)
		if err != nil {
			return err
		}
		if wl.name == "explore-pruned" {
			err = p.runAll(p.configs())
		} else {
			_, err = p.run()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		cells := map[string]cellRef{}
		for _, c := range p.cells.spans {
			if why := hashes.check(c); why != "" {
				return fmt.Errorf("%s: cell %s: %s", wl.name, c.key(), why)
			}
			cells[c.key()] = refOf(c.rec)
		}
		ref.Cells[wl.name] = cells
		fmt.Fprintf(os.Stderr, "regen: %s: %d cells\n", wl.name, len(cells))
	}

	whole := &workloadDef{name: "whole-program", options: func(uint64) (harness.Options, error) {
		return harness.Options{MaxInstr: 1 << 62, MaxCycles: 1 << 50}, nil
	}, experiments: []string{"fig4"}}
	p, err := whole.prepare(defaultSeed)
	if err != nil {
		return err
	}
	if err := p.runAll(p.configs()); err != nil {
		return fmt.Errorf("whole-program truth: %w", err)
	}
	for _, c := range p.cells.spans {
		if why := hashes.check(c); why != "" {
			return fmt.Errorf("whole-program cell %s: %s", c.key(), why)
		}
		ref.WholeProgram[c.key()] = refOf(c.rec)
	}
	fmt.Fprintf(os.Stderr, "regen: whole-program truth: %d cells\n", len(ref.WholeProgram))

	if old, err := readReference(path); err == nil {
		printDiff(old, ref)
	} else {
		fmt.Printf("no previous reference (%v)\n", err)
	}
	return ref.write(path)
}

// runAll simulates every (config × kernel) cell of cfgs, all in flight
// at once on the session's worker pool.
func (p *prepared) runAll(cfgs []core.Config) error {
	errs := make(chan error, len(cfgs))
	for _, cfg := range cfgs {
		go func(cfg core.Config) {
			_, err := p.sess.RunAll(cfg)
			errs <- err
		}(cfg)
	}
	var first error
	for range cfgs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// printDiff lists every pinned value that changed between two references.
func printDiff(old, cur *reference) {
	changed := 0
	diffCells := func(section string, a, b map[string]cellRef) {
		keys := map[string]bool{}
		for k := range a {
			keys[k] = true
		}
		for k := range b {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			va, inA := a[k]
			vb, inB := b[k]
			switch {
			case !inA:
				fmt.Printf("+ %s %s cycles=%d committed=%d digest=%s\n", section, k, vb.Cycles, vb.Committed, vb.Digest)
			case !inB:
				fmt.Printf("- %s %s\n", section, k)
			case va != vb:
				fmt.Printf("~ %s %s cycles %d→%d committed %d→%d digest %s→%s\n",
					section, k, va.Cycles, vb.Cycles, va.Committed, vb.Committed, va.Digest, vb.Digest)
			default:
				continue
			}
			changed++
		}
	}
	for _, wl := range workloads {
		diffCells(wl.name, old.Cells[wl.name], cur.Cells[wl.name])
	}
	diffCells("whole-program", old.WholeProgram, cur.WholeProgram)
	if old.DefaultSeed != cur.DefaultSeed || old.DetailedBudget != cur.DetailedBudget {
		fmt.Printf("~ seed %d→%d, budget %d→%d\n", old.DefaultSeed, cur.DefaultSeed, old.DetailedBudget, cur.DetailedBudget)
		changed++
	}
	fmt.Printf("reference diff: %d entries changed\n", changed)
}
