// Command wibworker executes campaign cells leased from a wibserve
// coordinator (DESIGN.md §10).
//
// Usage:
//
//	wibworker -server http://host:8420 [-id name] [-parallel N]
//	          [-poll 2s] [-deadline 0] [-metrics-addr addr]
//	          [-log-format text|json] [-pprof-addr addr] [-v]
//
// A worker is deliberately dumb: it leases one cell at a time per slot,
// heartbeats while the simulation runs, reports the outcome (classified
// transient or permanent), and lets the coordinator own every scheduling
// decision. -parallel N runs N lease loops sharing one harness session,
// so functional fast-forward checkpoints are built once per (benchmark,
// scale, skip) and shared across slots. SIGTERM/SIGINT is the graceful
// path: each slot finishes and delivers its in-flight cell, then exits.
//
// -metrics-addr serves the worker's side of fleet observability
// (DESIGN.md §11) as Prometheus text at /metrics: cells executed,
// simulated instructions and instrs/s, checkpoint cache activity, and
// heartbeat round-trip latency. When a lease carries a correlation ID
// the worker also records execution spans and ships them with each
// completion — no flag needed; the coordinator decides whether the
// fleet is traced.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"largewindow/internal/harness"
	"largewindow/internal/obs"
	"largewindow/internal/service"
	"largewindow/internal/telemetry"
)

func main() {
	var (
		server      = flag.String("server", "", "coordinator base URL (required)")
		id          = flag.String("id", "", "worker name in coordinator logs (default host-pid)")
		par         = flag.Int("parallel", 0, "concurrent lease slots (0 = GOMAXPROCS)")
		poll        = flag.Duration("poll", 0, "lease long-poll budget when the queue is dry (0 = 2s)")
		deadline    = flag.Duration("deadline", 0, "wall-clock limit per simulation, reported transient (0 = none)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics on this address (off when empty)")
		logFormat   = flag.String("log-format", "text", "structured log encoding: text or json")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (off when empty)")
		verbose     = flag.Bool("v", false, "log lease and completion events")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wibworker: %v\n", err)
		os.Exit(2)
	}
	if *server == "" {
		fmt.Fprintln(os.Stderr, "wibworker: -server is required")
		os.Exit(2)
	}
	slots := *par
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}

	// One session, shared by every slot: the coordinator owns dedup,
	// retries, and persistence, so the session is pure execution — plus a
	// shared checkpoint cache for the cells' fast-forward windows, which
	// it opens with the first cell that skips.
	session := harness.NewSession(harness.Options{RunDeadline: *deadline})
	logger.Info("wibworker starting", "slots", slots, "server", *server)

	// One metrics instance across every slot: /metrics reports the
	// process, not a slot. The engine's own atomics back the
	// throughput-facing series.
	metrics := &service.WorkerMetrics{}
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		metrics.Register(reg)
		eng := session.Campaign()
		start := time.Now()
		reg.CounterFunc("worker.instrs", func() uint64 { return eng.Snapshot().Instrs })
		reg.CounterFunc("worker.checkpoints.built", func() uint64 { return eng.Snapshot().CkptBuilt })
		reg.CounterFunc("worker.checkpoints.reused", func() uint64 { return eng.Snapshot().CkptReused })
		reg.Gauge("worker.instrs_per_sec", func(int64) float64 {
			return obs.SaneRate(float64(eng.Snapshot().Instrs), time.Since(start).Seconds())
		})
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.MetricsHandler(reg))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		go func() {
			logger.Info("metrics listening", "addr", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Warn("metrics server exited", "error", err)
			}
		}()
	}
	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Warn("pprof server exited", "error", err)
			}
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		logger.Info("signal received, finishing in-flight cells", "signal", sig.String())
		cancel()
	}()

	base := *id
	var wg sync.WaitGroup
	workers := make([]*service.Worker, slots)
	for i := 0; i < slots; i++ {
		wid := base
		if wid != "" && slots > 1 {
			wid = fmt.Sprintf("%s-%d", base, i)
		}
		w := service.NewWorker(service.WorkerOptions{
			Server:   *server,
			ID:       wid,
			Exec:     session.ExecCellWithProgress,
			Classify: harness.Transient,
			PollWait: *poll,
			Log:      logger,
			Metrics:  metrics,
		})
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	wg.Wait()
	var done uint64
	for _, w := range workers {
		done += w.CellsDone()
	}
	fmt.Fprintf(os.Stderr, "wibworker: exiting after %d completions\n", done)
}
