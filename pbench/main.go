// Command pbench is the repository benchmark. It runs one workload of the
// pestrie pay-once pipeline and its query server and prints one JSON
// result line:
//
//	bash pbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// run.sh builds the pestrie command and this benchmark from the checkout
// it is started in, then runs the benchmark from the checkout root. The
// workloads are:
//
//	serve-zipf  a `pestrie serve` process answers closed-loop batches whose
//	            pointer and object arguments follow a zipf law, so hot keys
//	            repeat (what an answer cache would absorb).
//	serve-live  a store-backed `pestrie serve -reload-interval` process
//	            answers uniform batches while new delta segments are
//	            published next to the served file; every checked answer
//	            must match the facts of the generation the reply names.
//	offline     the library pipeline over generated programs: IR parse,
//	            Andersen solve, Pestrie build, PES1 encode, and decode.
//
// The serve workloads are closed loops: 4 clients, each sending its next
// 32-query batch as soon as the previous reply is read, after one second
// of untimed warm-up.
//
// Inputs are generated: programs in the pointer IR, the query stream, and
// the edit stream. The served program is fixed (see servedProgram); --seed
// draws everything else. Answers are checked against points-to
// facts taken straight from the analysis result, not against the index
// under test. Every latency is measured in this process with the
// monotonic clock, one sample per batch (serve) or pipeline (offline),
// and p50_ms and p90_ms are exact nearest-rank quantiles of all samples
// of the window. throughput is queries answered per second of window
// (serve) or points-to facts taken through the pipeline per second of
// pipeline time (offline). setup_s is the median of five set-ups: for the
// serve workloads, analysing and persisting the served program, starting
// the server and getting its first answer; for offline, taking the
// served program to a decoded index.
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, taken from spans this benchmark records
// around each call into a layer plus the server's own /debug/stats and
// /debug/store counters. Spans are written to <work>/trace-<workload>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	pestrie  string // path of the built pestrie command
	work     string // scratch directory inside the checkout
}

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back: counts, end-to-end and
// per-layer metrics, and the spans recorded when tracing.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	e2e       map[string]metric
	layers    map[string]metric
	spans     *tracer
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve-zipf | serve-live | offline")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.pestrie, "pestrie", "", "path of the pestrie command to serve with")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for generated files")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	if cfg.work == "" {
		return fmt.Errorf("--work is required")
	}
	if err := os.RemoveAll(cfg.work); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	// SIGINT/SIGTERM cancel the run so spawned servers are stopped and
	// waited for on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var out *outcome
	var err error
	switch cfg.workload {
	case "serve-zipf":
		out, err = runServe(ctx, cfg, false)
	case "serve-live":
		out, err = runServe(ctx, cfg, true)
	case "offline":
		out, err = runOffline(ctx, cfg)
	default:
		return fmt.Errorf("unknown --workload %q (want serve-zipf, serve-live, or offline)", cfg.workload)
	}
	if err != nil {
		return err
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e}
	if cfg.trace {
		res.Metrics = out.layers
		for name, unit := range layerUnits {
			if _, ok := res.Metrics[name]; !ok {
				res.Metrics[name] = metric{0, unit}
			}
		}
		if err := out.spans.write(filepath.Join(cfg.work, "trace-"+cfg.workload+".json")); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// layerUnits lists every per-layer metric. A traced run reports 0 for the
// layers its workload does not pass through.
var layerUnits = map[string]string{
	"parse_ms": "ms", "solve_ms": "ms", "build_ms": "ms", "encode_ms": "ms",
	"decode_ms": "ms", "ready_ms": "ms", "pes_bytes": "bytes",
	"client_encode_us": "us", "roundtrip_ms": "ms", "client_decode_us": "us",
	"server_batch_ms": "ms", "outside_batch_ms": "ms",
	"isalias_us": "us", "aliases_us": "us", "pointsto_us": "us", "pointedby_us": "us",
	"reply_bytes": "bytes", "apply_ms": "ms", "visible_ms": "ms",
}

// ms and us convert durations to the metric units.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
