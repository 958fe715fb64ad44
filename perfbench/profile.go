package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"strings"
	"time"
)

const corePkg = `^largewindow/internal/core\.`

// stageBuckets attributes a CPU-profile frame, by function name, to the
// simulator layer or core stage it belongs to; the first match wins.
// The patterns follow the core's source files: fetch.go, rename.go
// (dispatch and recovery), issue.go and the register-file models,
// memops.go and lsq.go, wib.go and the slice core, events.go and the
// completion path, and commit. Unmatched core functions land in
// core.other and everything else in other, so a renamed function shows
// up there instead of vanishing.
var stageBuckets = []struct {
	name string
	re   *regexp.Regexp
}{
	{"core.wib", regexp.MustCompile(corePkg + `(\(\*wib\)\.|rowBefore|newWIB|sliceComputable|\(\*Processor\)\.(moveToWIB|parkEligible|unblockHead|slice|classLatency))`)},
	{"core.lsq", regexp.MustCompile(corePkg + `(\(\*lsq\)\.|\(\*storeWait\)\.|newLSQ|newStoreWait|\(\*Processor\)\.(tryIssueLoad|completeLoad|issueStore|storeDataArrived|storeAddressResolved))`)},
	{"core.fetch", regexp.MustCompile(corePkg + `\(\*Processor\)\.(fetch|pushIFQ|flushIFQ)`)},
	{"core.dispatch", regexp.MustCompile(corePkg + `(isFPClass|\(\*Processor\)\.(dispatch|recover|squash))`)},
	{"core.issue", regexp.MustCompile(corePkg + `(\(\*issueQueue\)\.|\(\*fuPools\)\.|readyBefore|newIssueQueue|newFUPools|\(\*Processor\)\.(issue|retryDeferredLoads|operand|registerInIQ|queueOf|wakeWaiters|waitColumn|launch|prefetchSources|regReadDelay))|^largewindow/internal/regfile\.`)},
	{"core.events", regexp.MustCompile(corePkg + `(\(\*eventQueue\)\.|packEvent|packedEvent|newEventQueue|\(\*Processor\)\.(processEvents|completeExec|execValue|writeResult|resolveBranch|mispredictedEntry|readOperand))`)},
	{"core.commit", regexp.MustCompile(corePkg + `\(\*Processor\)\.(commit|checkOracle|freePhys)`)},
	{"core.other", regexp.MustCompile(corePkg)},
	{"mem", regexp.MustCompile(`^largewindow/internal/mem\.`)},
	{"bpred", regexp.MustCompile(`^largewindow/internal/bpred\.`)},
	{"emu", regexp.MustCompile(`^largewindow/internal/emu\.`)},
	{"model", regexp.MustCompile(`^largewindow/internal/model\.`)},
	{"isa", regexp.MustCompile(`^largewindow/internal/isa\.`)},
	{"runtime.copy", regexp.MustCompile(`^runtime\.(memmove|duffcopy|duffzero|memclrNoHeapPointers|typedmemmove|typedslicecopy|typedmemclr)$`)},
	// Garbage collection and the allocation paths that feed it.
	{"runtime.gc", regexp.MustCompile(`^runtime\.(gc|mark|scan|sweep|greyobject|findObject|heapBits|wbBuf|bulkBarrier|typePointers|mallocgc|nextFreeFast|newobject|makeslice|growslice|newarray|heapSetType|spanOf|pageIndexOf|deductAssistCredit|memclrNoHeapPointersChunked|\(\*(mspan|mheap|mcache|mcentral|gcWork|gcControllerState|gcBits|pageAlloc|spanSet|sweepLocked|sweepLocker|gcCPULimiterState)\)\.)`)},
	{"other", regexp.MustCompile(``)},
}

// transparent matches shared helpers whose self time belongs to the
// layer that calls them: the generic heap (event queue, issue-queue
// select and WIB eligibility all use it), Go map and sort internals,
// preemption, and the core's ROB/register accessors.
var transparent = regexp.MustCompile(`^largewindow/internal/heap\.|^internal/runtime/maps\.|^runtime\.(map|memhash|aeshash|strhash|asyncPreempt)|^sort\.|^slices\.|` +
	corePkg + `\(\*Processor\)\.(liveEntry|pr|entry)$`)

// stageShares attributes every CPU-profile sample to the bucket of its
// innermost non-transparent frame and returns each bucket's share of
// all samples, in percent. The stacks are read with `go tool pprof
// -traces`.
func stageShares(profPath string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profPath).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	traces, err := parseTraces(out)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, b := range stageBuckets {
		shares[b.name] = 0
	}
	var total float64
	for _, t := range traces {
		total += t.value
	}
	if total <= 0 {
		return nil, fmt.Errorf("profile %s holds no samples", profPath)
	}
	for _, t := range traces {
		shares[bucketOf(t.frames)] += 100 * t.value / total
	}
	return shares, nil
}

// sampleStack is one distinct stack of a CPU profile, innermost frame
// first, with the CPU time sampled in it.
type sampleStack struct {
	value  float64 // seconds
	frames []string
}

// bucketOf names the stage bucket a stack's time is charged to.
func bucketOf(frames []string) string {
	for _, fn := range frames {
		if transparent.MatchString(fn) {
			continue
		}
		for _, b := range stageBuckets {
			if b.re.MatchString(fn) {
				return b.name
			}
		}
	}
	return "other"
}

// parseTraces reads `pprof -traces` output: blocks separated by dashed
// lines, each starting with the sampled time and the innermost frame,
// followed by one caller frame per line.
func parseTraces(out []byte) ([]sampleStack, error) {
	var stacks []sampleStack
	var cur *sampleStack
	started := false // the header precedes the first dashed line
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			started, cur = true, nil
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 {
			continue
		}
		if cur == nil {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %w", line, err)
			}
			stacks = append(stacks, sampleStack{value: d.Seconds()})
			cur = &stacks[len(stacks)-1]
			fields = fields[1:]
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(strings.Join(fields, " "), " (inline)"))
	}
	if len(stacks) == 0 {
		return nil, fmt.Errorf("pprof printed no stacks")
	}
	return stacks, sc.Err()
}
