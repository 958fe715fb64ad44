// Overhead proof for the fleet-observability layer, mirroring
// internal/telemetry/overhead_test.go: the same client→coordinator→
// worker sweep runs with observability fully off (nil bus, nil span
// log) and fully on (events + spans + a draining subscriber), and the
// disabled path must not measurably regress — plus an allocation-level
// proof that the disabled publish and span hooks are free.
package service

import (
	"context"
	"io"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"largewindow/internal/campaign"
	"largewindow/internal/obs"
)

// sweepOnce runs a small service sweep and returns cells completed.
func sweepOnce(tb testing.TB, observed bool) uint64 {
	opt := CoordinatorOptions{LeaseTTL: time.Second}
	var bus *obs.Bus
	if observed {
		bus = obs.NewBus()
		opt.Events = bus
		opt.Spans = obs.NewSpanLog(io.Discard)
		opt.ProgressInterval = 10 * time.Millisecond
	}
	coord := NewCoordinator(opt)
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var sub *obs.Subscriber
	if observed {
		// A live subscriber that drains, so the fan-out path actually
		// delivers instead of short-circuiting on an empty set.
		sub = bus.Subscribe(0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range sub.Events() {
			}
		}()
		defer func() {
			bus.Unsubscribe(sub)
			<-done
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	w := NewWorker(WorkerOptions{
		Server:   srv.URL,
		ID:       "bench-w",
		Exec:     fakeExec,
		PollWait: 50 * time.Millisecond,
		Metrics:  &WorkerMetrics{},
	})
	go func() {
		defer close(workerDone)
		w.Run(ctx)
	}()

	client := NewClient(ClientOptions{Server: srv.URL, PollWait: 200 * time.Millisecond})
	const n = 16
	for i := 0; i < n; i++ {
		cell := testCell(16+i, "gzip")
		if _, err := client.Exec(cell); err != nil {
			tb.Fatalf("exec: %v", err)
		}
	}
	cancel()
	<-workerDone
	return coord.Stats().Completed
}

func BenchmarkServiceObsOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepOnce(b, false)
	}
}

func BenchmarkServiceObsOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepOnce(b, true)
	}
}

// TestDisabledObsOverhead is the informational gate run by
// scripts/check.sh: observability fully on must stay within 25% of
// fully off over the same sweep (the real budget is noise-level; the
// loose bound keeps tier-1 stable on loaded machines). The ratio is the
// median over interleaved off/on pairs at a fixed sweep count, with the
// order alternating between pairs, so load from concurrently running
// test packages hits both sides of a pair alike.
func TestDisabledObsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	const pairs, sweeps = 9, 8
	timed := func(observed bool) time.Duration {
		start := time.Now()
		for i := 0; i < sweeps; i++ {
			sweepOnce(t, observed)
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
	t.Logf("obs off: %.2fms/sweep, on: %.2fms/sweep, enabled overhead %.1f%% (median of %d pairs)",
		float64(offSum)/(pairs*sweeps*1e6), float64(onSum)/(pairs*sweeps*1e6), 100*(ratio-1), pairs)
	if ratio > 1.25 {
		t.Errorf("observability-enabled sweep is %.1f%% slower than disabled — fast path broken", 100*(ratio-1))
	}
}

// TestDisabledObsZeroAlloc pins the disabled hooks at zero allocations:
// with no bus and no span log attached, publishing an event or
// recording a span must cost one untaken branch, nothing more.
func TestDisabledObsZeroAlloc(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second})
	defer c.Close()
	sc := &svcCell{id: "cell", cell: campaign.Cell{Bench: "gzip"}}
	start := time.Now()

	if n := testing.AllocsPerRun(1000, func() {
		c.publish(obs.Event{Type: obs.EventHeartbeat, CellID: sc.id})
	}); n != 0 {
		t.Errorf("disabled publish allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.span(obs.SpanQueued, sc, start, start, "")
	}); n != 0 {
		t.Errorf("disabled span hook allocates %.1f objects per call, want 0", n)
	}
	var nilLog *obs.SpanLog
	if n := testing.AllocsPerRun(1000, func() {
		nilLog.Record(obs.Span{})
	}); n != 0 {
		t.Errorf("nil SpanLog.Record allocates %.1f objects per call, want 0", n)
	}
	var nilBus *obs.Bus
	if n := testing.AllocsPerRun(1000, func() {
		nilBus.Publish(obs.Event{})
	}); n != 0 {
		t.Errorf("nil Bus.Publish allocates %.1f objects per call, want 0", n)
	}
}
