package largewindow

import (
	"context"
	"reflect"
	"testing"

	"largewindow/internal/campaign"
	"largewindow/internal/harness"
)

// TestFrontEndsAgree runs the same measured regions through a campaign
// cell (harness.Session.ExecCell) and through the facade
// (SimulateContext): a plain budgeted run, a skip/measure window, and a
// sampled plan. Both front ends build the region differently (the
// session through its shared checkpoint cache and memoized program
// length, the facade through its options), so the results must agree
// bit for bit.
func TestFrontEndsAgree(t *testing.T) {
	plan, err := ParseSamplingPlan("n=8,len=500,warm=500,seed=3,random")
	if err != nil {
		t.Fatal(err)
	}
	regions := []struct {
		name string
		cell campaign.Cell
		opts []Option
	}{
		{"plain", campaign.Cell{MaxInstr: 20_000}, []Option{WithMaxInstr(20_000)}},
		{"skip", campaign.Cell{SkipInstr: 5000, MaxInstr: 20_000}, []Option{WithSkip(5000), WithMeasure(20_000)}},
		{"sampled", campaign.Cell{Sampling: &plan}, []Option{WithSampling(plan)}},
	}
	session := harness.NewSession(harness.Options{Scale: ScaleTest})
	for _, bench := range []string{"gzip", "mst"} {
		prog := kernel(t, bench, ScaleTest)
		for _, cfg := range []Config{BaseConfig(), WIBConfig()} {
			for _, rg := range regions {
				cell := rg.cell
				cell.Config, cell.Bench, cell.Scale = cfg, bench, ScaleTest
				rec, err := session.ExecCell(cell)
				if err != nil {
					t.Fatalf("%s/%s/%s: ExecCell: %v", bench, cfg.Name, rg.name, err)
				}
				res, err := SimulateContext(context.Background(), cfg, prog, rg.opts...)
				if err != nil {
					t.Fatalf("%s/%s/%s: SimulateContext: %v", bench, cfg.Name, rg.name, err)
				}
				if res.Stats.Committed == 0 {
					t.Errorf("%s/%s/%s: nothing measured", bench, cfg.Name, rg.name)
				}
				if !reflect.DeepEqual(rec.Stats, res.Stats) {
					t.Errorf("%s/%s/%s: Stats differ:\n  cell   %+v\n  facade %+v", bench, cfg.Name, rg.name, rec.Stats, res.Stats)
				}
				if rec.IPC != res.IPC() || rec.DL1Miss != res.DL1MissRatio ||
					rec.L2Local != res.L2LocalMissRatio || rec.BrAcc != res.Stats.CondAccuracy() {
					t.Errorf("%s/%s/%s: cell IPC/DL1/L2/BrAcc %v/%v/%v/%v, facade %v/%v/%v/%v",
						bench, cfg.Name, rg.name, rec.IPC, rec.DL1Miss, rec.L2Local, rec.BrAcc,
						res.IPC(), res.DL1MissRatio, res.L2LocalMissRatio, res.Stats.CondAccuracy())
				}
			}
		}
	}
}
