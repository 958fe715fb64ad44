// Command perfbench is the repository benchmark: it runs the paper's
// evaluation campaigns through harness.Session — the path cmd/experiments
// uses — and reports host-time, memory and fidelity metrics, checking
// every simulated cell against a pinned reference. See README.md.
//
// Usage (from the repository root, through run.sh):
//
//	bash perfbench/run.sh --workload paper-detailed --seed 7 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all
//	bash perfbench/run.sh --regen
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// defaultSeed is the workload seed the pinned per-cell digests were
// recorded at; it equals the sampling-plan seed of DefaultSamplingSpec.
const defaultSeed = 7

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed: the sampling-plan seed and the explore audit seed")
		seconds = flag.Float64("seconds", 30, "measurement window in seconds; campaigns repeat while another fits")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		refPath = flag.String("ref", "perfbench/reference.json", "pinned reference file")
		outDir  = flag.String("out", ".bench_build", "directory for profiles and span logs")
		regen   = flag.Bool("regen", false, "recompute the pinned reference, write it to -ref and print the diff")
	)
	flag.Parse()
	if *regen {
		if err := regenerate(*refPath); err != nil {
			fatalf("regen: %v", err)
		}
		return
	}
	if *wlName == "all" {
		if err := runAll(*seed, *seconds); err != nil {
			fatalf("%v", err)
		}
		return
	}
	wl, ok := lookupWorkload(*wlName)
	if !ok {
		fatalf("unknown workload %q (valid: %s, all)", *wlName, strings.Join(workloadNames(), ", "))
	}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	ref, err := loadReference(*refPath)
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	b := &bench{wl: wl, seed: *seed, seconds: *seconds, ref: ref, outDir: *outDir}
	var res *result
	if *traced == 1 {
		res, err = b.runTraced()
	} else {
		res, err = b.runUntraced()
	}
	if err != nil {
		fatalf("%s: %v", wl.name, err)
	}
	printResult(os.Stdout, wl.name, res)
}

// runAll runs every workload untraced and then traced, each run in its
// own process so that per-process metrics (peak RSS, CPU time) stay per
// run, and prints each run's report followed by one merged result whose
// metric names are prefixed with the workload name.
func runAll(seed uint64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	merged := &result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "--workload", wl.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s: parsing result: %w", wl.name, err)
			}
			merged.Correct = merged.Correct && r.Correct
			merged.Attempted += r.Attempted
			merged.Failed += r.Failed
			for k, v := range r.Metrics {
				merged.Metrics[wl.name+"."+k] = v
			}
		}
	}
	line, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printResult writes a readable metric table, then the JSON result line.
func printResult(f *os.File, name string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "# %s: %d cells attempted, %d failed, correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(f, "%-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintln(f, string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
