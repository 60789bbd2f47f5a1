// Command perfbench is the repository's benchmark. It assembles the full
// RITM stack from the packages' public APIs (CA → origin → region edge →
// PoP edges → writer and mapped-reader RAs → real-TLS interceptors and
// tlssim DPI proxies, every HTTP hop over loopback TCP), runs one named
// workload from a seed, checks every decision the stack makes, and prints
// its metrics by name and unit. See README.md.
//
//	perfbench --workload handshake|status|churn --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end set, with --trace 1 the per-layer set from a traced run.
// Any wrongly decided operation makes the command exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// params sizes every workload; defaultParams is the benchmark, the
// self-tests shrink it.
type params struct {
	setups int // stack builds per run; setup_s is their median

	// handshake
	sites      int     // distinct SNIs, Zipf-drawn
	siteCorpus int     // standing revocations (revoked sites included)
	rate       float64 // open-loop arrivals per second
	satShare   float64 // share of the run spent in the closed-loop saturation phase
	hsBatch    uint64  // revocations per ∆

	// status
	universe    uint64 // probe serials; every fifth is revoked (the corpus)
	statusBatch uint64 // revocations per ∆

	// churn
	churnCorpus uint64
	churnBatch  uint64

	allocRuns int // calls per quiesced allocs/op sample

	// plantMismatch flips one expected verdict; the self-tests use it to
	// prove a wrong decision is caught.
	plantMismatch bool
}

func defaultParams() params {
	return params{
		setups:      3,
		sites:       4096,
		siteCorpus:  20000,
		rate:        300,
		satShare:    0.25,
		hsBatch:     100,
		universe:    1_000_000,
		statusBatch: 1000,
		churnCorpus: 200_000,
		churnBatch:  2000,
		allocRuns:   500,
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is a metric with its name, for the ordered report.
type named struct {
	name string
	metric
}

// env is what a workload runs with.
type env struct {
	p       params
	seed    int64
	seconds float64
	tr      *Tracer
	dataDir string
	nproc   int
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	mismatches        []string // the first few wrong decisions

	p50Ms, tailMs float64 // the workload's timed operation
	tailPct       float64 // which percentile tailMs is
	samples       uint64
	opsPerSec     float64

	report []named            // the workload's named end-to-end figures
	layers map[string]float64 // per-layer figures only the workload knows
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.mismatches) < 8 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

// workload runs on a built stack for env.seconds.
type workload struct {
	name  string
	build func(e *env) stackConfig
	run   func(e *env, s *stack) (*outcome, error)
}

var workloads = map[string]workload{
	"handshake": {"handshake", handshakeStack, runHandshake},
	"status":    {"status", statusStack, runStatus},
	"churn":     {"churn", churnStack, runChurn},
}

// result is the final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "handshake, status or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload handshake|status|churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	work := filepath.Join(".bench_build", "perfbench-run")
	res, err := execute(w, defaultParams(), *seed, *seconds, *trace == 1, work, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute builds the stack p.setups times (keeping the last), runs the
// workload and returns the result line; the report goes to out.
func execute(w workload, p params, seed int64, seconds float64, traced bool, work string, out io.Writer) (*result, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	e := &env{
		p:       p,
		seed:    seed,
		seconds: seconds,
		tr:      newTracer(),
		dataDir: filepath.Join(work, fmt.Sprintf("data-%d", os.Getpid())),
		nproc:   runtime.NumCPU(),
	}
	prov := stamp(w.name, seed, seconds, traced)
	if b, err := json.Marshal(prov); err == nil {
		fmt.Fprintf(out, "provenance %s\n", b)
	}

	var s *stack
	setups := make([]float64, 0, p.setups)
	for k := 0; k < p.setups; k++ {
		if s != nil {
			s.close()
		}
		cfg := w.build(e)
		start := time.Now()
		var err error
		if s, err = buildStack(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()

	before := snapshot(s)
	if traced {
		e.tr.Start()
	}
	o, err := w.run(e, s)
	e.tr.Stop()
	if err != nil {
		return nil, err
	}
	after := snapshot(s)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6

	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
	}
	setupS := median(setups)
	e2e := []named{
		{"p50_ms", metric{o.p50Ms, "ms"}},
		{"max_ops_per_s", metric{o.opsPerSec, "1/s"}},
		{"setup_s", metric{setupS, "s"}},
		{"heap_mb", metric{heapMB, "MB"}},
	}
	metrics := e2e
	if traced {
		metrics = perLayer(e, s, o, before, after)
		path := traceFile(work, w.name)
		if err := e.tr.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%s traced run: %d spans in %s\n", w.name, len(e.tr.Spans()), path)
		printNamed(out, "per-layer", metrics)
	}
	res.Metrics = make(map[string]metric, len(metrics))
	for _, m := range metrics {
		res.Metrics[m.name] = m.metric
	}
	rep := append([]named{}, o.report...)
	rep = append(rep,
		named{"setup_s", metric{setupS, "s"}},
		named{"heap_mb", metric{heapMB, "MB"}},
		named{"error_ratio", metric{float64(o.failed) / float64(max(o.attempted, 1)), "ratio"}},
	)
	fmt.Fprintf(out, "%s: %d operations, %d failed; tail is p%g of %d samples (highest supported: p%g)\n",
		w.name, o.attempted, o.failed, o.tailPct, o.samples, TailPercentile(o.samples))
	printNamed(out, "end-to-end", rep)
	for _, m := range o.mismatches {
		fmt.Fprintf(out, "MISMATCH %s\n", m)
	}
	return res, nil
}

func printNamed(out io.Writer, title string, ms []named) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.name, m.Value, m.Unit)
	}
}

// median of a non-empty slice.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// allocsPerOp is the mean number of heap allocations per call of f on a
// quiesced process, single-threaded, after one warm-up call.
func allocsPerOp(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
