package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"largewindow/internal/bpred"
	"largewindow/internal/core"
	"largewindow/internal/emu"
	"largewindow/internal/harness"
	"largewindow/internal/isa"
	"largewindow/internal/mem"
	"largewindow/internal/model"
	"largewindow/internal/sample"
	"largewindow/internal/trace"
	"largewindow/internal/workload"
)

// Probe sizes of the traced run's layer replays, per kernel.
const (
	// replayInstrs is the recorded stream replayed into mem and bpred.
	replayInstrs = 100_000
	// emuInstrs bounds the emulator throughput probe.
	emuInstrs = 2_000_000
	// collectInstrs is the model profiler probe's pass length.
	collectInstrs = 200_000
)

// span is one traced interval, in nanoseconds from the start of the run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; they are written out
// when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// finish ends span id now.
func (t *tracer) finish(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// timed runs f as a span named name under parent.
func (t *tracer) timed(name string, parent int, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start), err
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runTraced measures the per-layer metrics: an untraced campaign for the
// overhead baseline, a campaign under the CPU profiler with one span per
// cell, and direct calls into each layer's public functions.
func (b *bench) runTraced() (*result, error) {
	tr := &tracer{t0: time.Now()}
	p, err := b.setupSeveral(b.seed)
	if err != nil {
		return nil, err
	}
	plain := campaignRun(p)

	if p, err = b.setup(b.seed); err != nil {
		return nil, err
	}
	profPath := filepath.Join(b.outDir, "cpu-"+b.wl.name+".pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	traced := campaignRun(p)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	campaignID := tr.add("campaign "+b.wl.name, 0, traced.begin, traced.begin.Add(traced.wall))
	for _, c := range traced.p.cells.spans {
		tr.add("cell "+c.key(), campaignID, c.start, c.end)
	}

	res := b.check([]*rep{plain, traced})
	m := res.Metrics
	b.campaignLayers(traced, m)
	shares, err := stageShares(profPath)
	if err != nil {
		return nil, err
	}
	for name, pct := range shares {
		m[name+".cpu_pct"] = metric{pct, "%"}
	}
	if err := b.layerProbes(tr, traced.p.cells.spans, m); err != nil {
		return nil, err
	}
	if r := traced.report; r != nil {
		m["model.pruned_frac"] = metric{float64(r.Pruned) / float64(r.TotalCells), "ratio"}
		m["model.simulated_cells"] = metric{float64(r.Simulated), "count"}
		m["model.audit_err_pct"] = metric{r.AuditErrPct, "%"}
	} else {
		m["model.pruned_frac"] = metric{0, "ratio"}
		m["model.simulated_cells"] = metric{0, "count"}
		m["model.audit_err_pct"] = metric{0, "%"}
	}
	m["trace_overhead_pct"] = metric{100 * (traced.wall.Seconds()/plain.wall.Seconds() - 1), "%"}
	if err := tr.write(filepath.Join(b.outDir, "spans-"+b.wl.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// campaignLayers derives the per-layer metrics that come from the traced
// campaign's cell spans and simulated statistics.
func (b *bench) campaignLayers(r *rep, m map[string]metric) {
	cells := r.p.cells.spans
	var durs []float64
	var busy float64
	for _, c := range cells {
		durs = append(durs, c.seconds())
		busy += c.seconds()
	}
	m["campaign.cell_s.p50"] = metric{median(durs), "s"}
	m["campaign.cell_s.tail"] = metric{tail(durs), "s"}
	m["campaign.worker_busy_frac"] = metric{busy / (r.wall.Seconds() * float64(r.p.workers)), "ratio"}
	m["workload.build_ms"] = metric{1000 * median(seconds(b.builds)), "ms"}

	var sum struct {
		committed, fetched, wibIns, wibRe, bvStall, replay, forward float64
		mlpWeighted, mlpCycles                                      float64
		cyc, instr                                                  map[string]float64
	}
	sum.cyc, sum.instr = map[string]float64{}, map[string]float64{}
	for _, c := range cells {
		if c.err != nil {
			continue
		}
		st := c.rec.Stats
		sum.committed += float64(st.Committed)
		sum.fetched += float64(st.FetchedInstrs)
		sum.wibIns += float64(st.WIBInsertions)
		sum.wibRe += float64(st.WIBReinsertions)
		sum.bvStall += float64(st.BitVectorStalls)
		sum.replay += float64(st.Replays)
		sum.forward += float64(st.ForwardedLoads)
		sum.mlpWeighted += st.AvgMLP() * float64(st.MLPCycles())
		sum.mlpCycles += float64(st.MLPCycles())
		cfg := canonicalConfig(c.config)
		sum.cyc[cfg] += float64(st.Cycles)
		sum.instr[cfg] += float64(st.Committed)
	}
	perK := func(x float64) float64 { return 1000 * ratio(x, sum.committed) }
	m["core.cpi.base"] = metric{ratio(sum.cyc[baseConfig], sum.instr[baseConfig]), "cycles/instr"}
	m["core.cpi.wib"] = metric{ratio(sum.cyc[wibConfig], sum.instr[wibConfig]), "cycles/instr"}
	m["core.fetch_useful_frac"] = metric{ratio(sum.committed, sum.fetched), "ratio"}
	m["core.mlp_avg"] = metric{ratio(sum.mlpWeighted, sum.mlpCycles), "misses"}
	m["core.wib_insert_per_kinstr"] = metric{perK(sum.wibIns), "1/kinstr"}
	m["core.wib_reinsert_per_kinstr"] = metric{perK(sum.wibRe), "1/kinstr"}
	m["core.bv_stall_per_kinstr"] = metric{perK(sum.bvStall), "1/kinstr"}
	m["core.replay_per_kinstr"] = metric{perK(sum.replay), "1/kinstr"}
	m["core.forward_per_kinstr"] = metric{perK(sum.forward), "1/kinstr"}

	var sampled []float64
	var covered, withCI int
	for _, c := range cells {
		if c.err != nil || c.rec.Sampling == nil {
			continue
		}
		sampled = append(sampled, c.seconds())
		if t, ok := b.ref.WholeProgram[c.key()]; ok {
			withCI++
			if d := c.rec.IPC - t.IPC; d <= c.rec.IPCCI95 && -d <= c.rec.IPCCI95 {
				covered++
			}
		}
	}
	m["sample.cell_s.p50"] = metric{median(sampled), "s"}
	m["sample.ipc_err_mean_pct"] = metric{mean(cellIPCErrs(cellIPCs(r), b.ref.WholeProgram)), "%"}
	m["sample.ci_covers_frac"] = metric{ratio(float64(covered), float64(withCI)), "ratio"}
}

// tail is the highest percentile of xs with at least ten values beyond
// it: the eleventh-largest value (the largest when there are fewer).
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	if len(s) > 10 {
		return s[10]
	}
	return s[len(s)-1]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// probeKernel is one kernel's program and recorded stream for the layer
// probes.
type probeKernel struct {
	name   string
	prog   *isa.Program
	length uint64
	trace  *trace.Trace
}

// layerProbes times direct calls into each layer's public functions,
// kernel by kernel, and adds the per-layer host-cost metrics.
func (b *bench) layerProbes(tr *tracer, cells []cellSpan, m map[string]metric) error {
	probeID := tr.add("probes", 0, time.Now(), time.Time{})
	defer tr.finish(probeID)
	var kernels []*probeKernel
	var lengthTime time.Duration
	lengths := map[string]uint64{}
	for _, sp := range workload.All() {
		src, err := workload.ParseRef(workload.SchemeBench + ":" + sp.Name)
		if err != nil {
			return err
		}
		k := &probeKernel{name: sp.Name}
		if k.prog, err = src.Build(scale); err != nil {
			return err
		}
		d, err := tr.timed("sample.ProgramLength "+sp.Name, probeID, func() error {
			var err error
			k.length, err = sample.ProgramLength(k.prog)
			return err
		})
		if err != nil {
			return err
		}
		lengthTime += d
		lengths[k.name] = k.length
		if _, err := tr.timed("trace.Record "+sp.Name, probeID, func() error {
			var err error
			k.trace, err = trace.Record(src, scale, replayInstrs)
			return err
		}); err != nil {
			return err
		}
		kernels = append(kernels, k)
	}
	m["sample.length_s"] = metric{lengthTime.Seconds(), "s"}
	m["sample.detailed_frac"] = metric{detailedFrac(cells, lengths), "ratio"}

	if err := probeCore(tr, probeID, kernels, b.coreBudget(), m); err != nil {
		return err
	}
	probeMem(tr, probeID, kernels, m)
	probeBpred(tr, probeID, kernels, m)
	if err := probeEmu(tr, probeID, kernels, m); err != nil {
		return err
	}
	return probeModel(tr, probeID, kernels, m)
}

// coreBudget is the detailed run length the workload's cells use: one
// sampling window (warm-up plus measured unit) or the detailed budget.
func (b *bench) coreBudget() uint64 {
	if b.wl.seeded {
		plan, _ := samplingPlan(b.seed)
		return plan.Detailed()
	}
	return detailedBudget
}

// detailedFrac is the share of the campaign's program instructions that
// ran in detail: per cell, its budget or its sampled windows (warm-up
// plus measured unit) over its kernel's dynamic length.
func detailedFrac(cells []cellSpan, lengths map[string]uint64) float64 {
	var detailed, total float64
	for _, c := range cells {
		if c.err != nil {
			continue
		}
		if c.rec.Sampling != nil {
			detailed += float64(c.rec.Intervals) * float64(c.rec.Sampling.Detailed())
		} else {
			detailed += float64(c.rec.Stats.Committed)
		}
		total += float64(lengths[c.bench])
	}
	return ratio(detailed, total)
}

// probeCore times core.New and RunContext directly for the base, WIB and
// a large conventional machine on every kernel.
func probeCore(tr *tracer, parent int, kernels []*probeKernel, budget uint64, m map[string]metric) error {
	cfgs := []struct {
		kind string
		cfg  core.Config
	}{{"base", core.DefaultConfig()}, {"wib", core.WIBDefault()}, {"conv", core.ScaledConfig(2048, 2048)}}
	runNS := map[string]float64{}
	instrs := map[string]float64{}
	var newNS, allCycles, allRunNS, ffCycles, mallocs, bytes, news float64
	var ms0, ms1 runtime.MemStats
	for _, k := range kernels {
		for _, c := range cfgs {
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			p, err := core.New(c.cfg, k.prog)
			if err != nil {
				return err
			}
			mid := time.Now()
			st, err := p.RunContext(context.Background(), budget, 0)
			end := time.Now()
			if err != nil && !errors.Is(err, core.ErrBudget) {
				return fmt.Errorf("core probe %s on %s: %w", k.name, c.cfg.Name, err)
			}
			runtime.ReadMemStats(&ms1)
			tr.add("core.New "+c.cfg.Name+" "+k.name, parent, start, mid)
			tr.add("core.RunContext "+c.cfg.Name+" "+k.name, parent, mid, end)
			skipped, _ := p.FastForwardStats()
			newNS += float64(mid.Sub(start).Nanoseconds())
			news++
			run := float64(end.Sub(mid).Nanoseconds())
			runNS[c.kind] += run
			instrs[c.kind] += float64(st.Committed)
			allRunNS += run
			allCycles += float64(st.Cycles)
			ffCycles += float64(skipped)
			mallocs += float64(ms1.Mallocs - ms0.Mallocs)
			bytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		}
	}
	var total float64
	for _, c := range cfgs {
		m["core.run_ns_per_instr."+c.kind] = metric{ratio(runNS[c.kind], instrs[c.kind]), "ns"}
		total += instrs[c.kind]
	}
	m["core.run_ns_per_cycle"] = metric{ratio(allRunNS, allCycles), "ns"}
	m["core.new_ms"] = metric{newNS / news / 1e6, "ms"}
	m["core.allocs_per_kinstr"] = metric{1000 * ratio(mallocs, total), "1/kinstr"}
	m["core.alloc_bytes_per_kinstr"] = metric{1000 * ratio(bytes, total), "B/kinstr"}
	m["core.ff_cycle_frac"] = metric{ratio(ffCycles, allCycles), "ratio"}
	return nil
}

// fetchLine is the instruction-cache line address the core fetches pc
// from (eight bytes per instruction, 64-byte lines).
func fetchLine(pc uint64) uint64 { return (pc * 8) &^ 63 }

// probeMem replays each kernel's recorded address stream into the
// base machine's hierarchy: once through the timing interface
// (Fetch/Load/Store, one cycle per instruction) and once through the
// profiling interface.
func probeMem(tr *tracer, parent int, kernels []*probeKernel, m map[string]metric) {
	cfg := core.DefaultConfig().Mem
	var accessNS, profileNS, accesses float64
	var l1dAcc, l1dMiss, l2Acc, l2Miss, tlbAcc, tlbMiss uint64
	for _, k := range kernels {
		h := mem.NewHierarchy(cfg)
		var n float64
		d, _ := tr.timed("mem.Load/Store/Fetch "+k.name, parent, func() error {
			last := ^uint64(0)
			for i, r := range k.trace.Records {
				now := int64(i)
				if line := fetchLine(r.PC); line != last {
					last = line
					h.Fetch(line, now)
					n++
				}
				if r.HasMem {
					if r.Class == isa.ClassStore {
						h.Store(r.Addr, now)
					} else {
						h.Load(r.Addr, now)
					}
					n++
				}
			}
			return nil
		})
		accessNS += float64(d.Nanoseconds())
		accesses += n
		l1d, l2 := h.L1DStats(), h.L2Stats()
		l1dAcc, l1dMiss = l1dAcc+l1d.Accesses, l1dMiss+l1d.Misses
		l2Acc, l2Miss = l2Acc+l2.Accesses, l2Miss+l2.Misses
		ta, tm := h.TLBStats()
		tlbAcc, tlbMiss = tlbAcc+ta, tlbMiss+tm

		ph := mem.NewHierarchy(cfg)
		d, _ = tr.timed("mem.Profile* "+k.name, parent, func() error {
			last := ^uint64(0)
			for _, r := range k.trace.Records {
				if line := fetchLine(r.PC); line != last {
					last = line
					ph.ProfileFetch(line)
				}
				if r.HasMem {
					if r.Class == isa.ClassStore {
						ph.ProfileStore(r.Addr)
					} else {
						ph.ProfileLoad(r.Addr)
					}
				}
			}
			return nil
		})
		profileNS += float64(d.Nanoseconds())
	}
	m["mem.access_ns"] = metric{ratio(accessNS, accesses), "ns"}
	m["mem.profile_ns"] = metric{ratio(profileNS, accesses), "ns"}
	m["mem.l1d_miss_ratio"] = metric{ratio(float64(l1dMiss), float64(l1dAcc)), "ratio"}
	m["mem.l2_miss_ratio"] = metric{ratio(float64(l2Miss), float64(l2Acc)), "ratio"}
	m["mem.tlb_miss_ratio"] = metric{ratio(float64(tlbMiss), float64(tlbAcc)), "ratio"}
}

// probeBpred replays each kernel's recorded branch stream into a fresh
// base-machine predictor through ProfileBranch.
func probeBpred(tr *tracer, parent int, kernels []*probeKernel, m map[string]metric) {
	cfg := core.DefaultConfig().Bpred
	var ns, branches, cond, mispredicts float64
	for _, k := range kernels {
		bp := bpred.New(cfg)
		code := k.trace.Code
		d, _ := tr.timed("bpred.ProfileBranch "+k.name, parent, func() error {
			for _, r := range k.trace.Records {
				switch r.Class {
				case isa.ClassBranch:
					mis, _ := bp.ProfileBranch(r.PC, code[r.PC].Target(r.PC), r.Taken, true, r.Taken)
					cond++
					if mis {
						mispredicts++
					}
				case isa.ClassJump:
					if r.HasTgt {
						bp.ProfileBranch(r.PC, r.Target, true, false, false)
					} else {
						bp.ProfileBranch(r.PC, code[r.PC].Target(r.PC), true, false, true)
					}
				default:
					continue
				}
				branches++
			}
			return nil
		})
		ns += float64(d.Nanoseconds())
	}
	m["bpred.profile_ns"] = metric{ratio(ns, branches), "ns"}
	m["bpred.cond_accuracy"] = metric{1 - ratio(mispredicts, cond), "ratio"}
}

// probeEmu times Machine.Run over each kernel's first emuInstrs
// instructions.
func probeEmu(tr *tracer, parent int, kernels []*probeKernel, m map[string]metric) error {
	var instrs float64
	var secs float64
	for _, k := range kernels {
		mach := emu.New(k.prog)
		d, err := tr.timed("emu.Run "+k.name, parent, func() error {
			n, err := mach.Run(emuInstrs)
			instrs += float64(n)
			if errors.Is(err, emu.ErrNotHalted) {
				return nil
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("emulating %s: %w", k.name, err)
		}
		secs += d.Seconds()
	}
	m["emu.run_minstr_per_s"] = metric{instrs / secs / 1e6, "Minstr/s"}
	return nil
}

// probeModel times model.Collect on each kernel and model.Predict over
// the explore grid's configurations.
func probeModel(tr *tracer, parent int, kernels []*probeKernel, m map[string]metric) error {
	base := core.DefaultConfig()
	grid := harness.ExploreGrid()
	var instrs, collectSecs, predictSecs, predictions float64
	for _, k := range kernels {
		var prof *model.Profile
		d, err := tr.timed("model.Collect "+k.name, parent, func() error {
			var err error
			prof, err = model.Collect(k.prog, scale.String(), model.CollectOptions{
				MaxInstr: collectInstrs, Mem: base.Mem, Bpred: base.Bpred})
			return err
		})
		if err != nil {
			return err
		}
		collectSecs += d.Seconds()
		instrs += float64(prof.N)
		d, _ = tr.timed("model.Predict "+k.name, parent, func() error {
			for _, cfg := range grid {
				model.Predict(prof, cfg)
			}
			return nil
		})
		predictSecs += d.Seconds()
		predictions += float64(len(grid))
	}
	m["model.collect_minstr_per_s"] = metric{instrs / collectSecs / 1e6, "Minstr/s"}
	m["model.predict_us"] = metric{1e6 * predictSecs / predictions, "us"}
	return nil
}
