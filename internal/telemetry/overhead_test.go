// Overhead proof for the zero-cost-when-disabled design: the same kernel
// is simulated with and without a collector attached, and the disabled
// path must not measurably regress. This file is an external test package
// so it can drive the instrumented core (core imports telemetry; the
// reverse import would cycle).
package telemetry_test

import (
	"io"
	"sort"
	"testing"
	"time"

	"largewindow/internal/core"
	"largewindow/internal/telemetry"
	"largewindow/internal/workload"
)

// simulate runs one mgrid window and returns the cycle count.
func simulate(b testing.TB, attach bool) int64 {
	spec, ok := workload.Get("mgrid")
	if !ok {
		b.Fatal("mgrid kernel missing")
	}
	prog := spec.Build(workload.ScaleTest)
	p, err := core.New(core.WIBDefault(), prog)
	if err != nil {
		b.Fatal(err)
	}
	if attach {
		p.AttachTelemetry(telemetry.NewCollector(io.Discard, 1000))
	}
	st, err := p.Run(0, 2_000_000)
	if err != nil {
		b.Fatalf("run: %v", err)
	}
	return st.Cycles
}

// BenchmarkTelemetryOff measures the instrumented core with no collector
// attached — the production fast path (every probe is one nil check).
func BenchmarkTelemetryOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		simulate(b, false)
	}
}

// BenchmarkTelemetryOn measures the same run with a collector attached
// and sampling every 1000 cycles.
func BenchmarkTelemetryOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		simulate(b, true)
	}
}

// TestDisabledTelemetryOverhead is the informational smoke check run by
// scripts/check.sh: it reports the on/off ratio and fails only on a gross
// regression (>25%), far above the <2% budget the benchmark pair measures
// precisely. The ratio is the median over interleaved off/on pairs at a
// fixed run count, with the order alternating between pairs, so load
// from concurrently running test packages hits both sides of a pair
// alike and one disturbed pair cannot move the verdict.
func TestDisabledTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	const pairs, runs = 9, 3
	timed := func(attach bool) time.Duration {
		start := time.Now()
		for i := 0; i < runs; i++ {
			simulate(t, attach)
		}
		return time.Since(start)
	}
	ratios := make([]float64, pairs)
	var offSum, onSum time.Duration
	for i := range ratios {
		var off, on time.Duration
		if i%2 == 0 {
			off, on = timed(false), timed(true)
		} else {
			on, off = timed(true), timed(false)
		}
		offSum += off
		onSum += on
		ratios[i] = float64(on) / float64(off)
	}
	sort.Float64s(ratios)
	ratio := ratios[pairs/2]
	t.Logf("telemetry off: %.2fms/run, on: %.2fms/run, enabled overhead %.1f%% (median of %d pairs)",
		float64(offSum)/(pairs*runs*1e6), float64(onSum)/(pairs*runs*1e6), 100*(ratio-1), pairs)
	if ratio > 1.25 {
		t.Errorf("telemetry-enabled run is %.1f%% slower than disabled — probe fast path broken", 100*(ratio-1))
	}
}
