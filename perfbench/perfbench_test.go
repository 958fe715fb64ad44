package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"largewindow/internal/core"
	"largewindow/internal/workload"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test reads.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func newBench(t *testing.T, name string) *bench {
	t.Helper()
	wl, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	return &bench{wl: wl, seed: defaultSeed, ref: ref, outDir: t.TempDir()}
}

// requireMetrics checks that res reports exactly the named metrics, each
// with its declared unit.
func requireMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not reported", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
}

// TestReportsEveryDeclaredMetric runs the cheapest workload untraced and
// traced, one campaign each, and checks both outputs against
// BENCHMARK.json. The traced run's stage buckets must cover all CPU
// samples, with little left unattributed.
func TestReportsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two campaigns")
	}
	spec := loadSpec(t)
	b := newBench(t, "explore-pruned")
	res, err := b.runUntraced()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("untraced run: correct=%v failed=%d", res.Correct, res.Failed)
	}
	requireMetrics(t, res, spec.EndToEnd)

	b = newBench(t, "explore-pruned")
	res, err = b.runTraced()
	if err != nil {
		t.Fatal(err)
	}
	requireMetrics(t, res, spec.PerLayer)
	var sum float64
	for _, s := range stageBuckets {
		sum += res.Metrics[s.name+".cpu_pct"].Value
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("stage buckets sum to %.4f%%, want 100%%", sum)
	}
	if u := res.Metrics["core.other.cpu_pct"].Value + res.Metrics["other.cpu_pct"].Value; u > 10 {
		t.Errorf("core.other + other = %.1f%% of CPU samples; extend stageBuckets", u)
	}
}

// TestTamperedDigestFails runs one cell, then checks it against the
// pinned reference and against a temp copy with that cell's digest
// altered: only the altered copy may fail it.
func TestTamperedDigestFails(t *testing.T) {
	b := newBench(t, "explore-pruned")
	p, err := b.wl.prepare(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.Get("gzip")
	if _, err := p.sess.Run(core.DefaultConfig(), spec.Source()); err != nil {
		t.Fatal(err)
	}
	cells := p.cells.spans
	hashes := newStreamHashes()
	if fails := checkCells(cells, hashes, b.ref.Cells[b.wl.name]); len(fails) != 0 {
		t.Fatalf("pinned reference fails the cell: %v", fails)
	}

	tampered := filepath.Join(t.TempDir(), "reference.json")
	key := cells[0].key()
	entry := b.ref.Cells[b.wl.name][key]
	entry.Digest = "0000000000000000"
	b.ref.Cells[b.wl.name][key] = entry
	if err := b.ref.write(tampered); err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if fails := checkCells(cells, hashes, ref.Cells[b.wl.name]); len(fails) != 1 {
		t.Fatalf("tampered digest gave %d failures, want 1: %v", len(fails), fails)
	}
}

// TestTraceParsing checks the pprof -traces reader and the attribution
// through transparent helper frames.
func TestTraceParsing(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      20ms   largewindow/internal/heap.(*Heap[go.shape.struct { a uint64 }]).siftDown
             largewindow/internal/core.(*eventQueue).popDue (inline)
             largewindow/internal/core.(*Processor).cycle
-----------+-------------------------------------------------------
     1.5s   runtime.memmove
             largewindow/internal/core.(*Processor).fetch
-----------+-------------------------------------------------------
`)
	stacks, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 || stacks[0].value != 0.02 || stacks[1].value != 1.5 {
		t.Fatalf("parsed %+v", stacks)
	}
	if got := bucketOf(stacks[0].frames); got != "core.events" {
		t.Errorf("heap under the event queue charged to %s, want core.events", got)
	}
	if got := bucketOf(stacks[1].frames); got != "runtime.copy" {
		t.Errorf("memmove charged to %s, want runtime.copy", got)
	}
}
