// Command benchreport runs the two headline benchmarks — the full
// push-button pipeline at 1/2/4 ranks and the Figure 8 projection-based
// decomposition — through testing.Benchmark and appends a labeled entry to
// a BENCH_<date>.json trajectory file. Committing the file after a
// performance change records the before/after pair next to the code that
// caused it.
//
// With -guard the command additionally compares the fresh
// PushButton/1-ranks measurement against the file's most recent entry and
// fails if allocations grew beyond noise, so a refactor that is supposed
// to be allocation-neutral proves it in CI. -timeout bounds the whole
// report run, and Ctrl-C aborts the in-flight benchmark cleanly.
//
// Usage:
//
//	go run ./cmd/benchreport -label after-arena [-o BENCH_2026-08-05.json]
//	go run ./cmd/benchreport -label refactor -guard -o BENCH_2026-08-05.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"pamg2d/internal/adapt"
	"pamg2d/internal/benchcfg"
	"pamg2d/internal/core"
	"pamg2d/internal/metric"
	"pamg2d/internal/mpi"
	"pamg2d/internal/project"
	"pamg2d/internal/trace"
)

// benchResult is one benchmark's measured cost, the same triple `go test
// -bench -benchmem` prints.
type benchResult struct {
	Iterations  int   `json:"iterations"`
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Service-load columns, present only on Meshd/load entries ingested
	// from a meshload summary (-load): requests per second through a live
	// meshd plus the client-observed latency percentiles.
	ThroughputRPS float64 `json:"throughput_rps,omitempty"`
	P50Ms         float64 `json:"p50_ms,omitempty"`
	P99Ms         float64 `json:"p99_ms,omitempty"`
}

// entry is one labeled measurement of the whole suite.
type entry struct {
	Label      string                 `json:"label"`
	Timestamp  string                 `json:"timestamp"`
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

// report is the trajectory file: entries appended in measurement order.
type report struct {
	Entries []entry `json:"entries"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	label := fs.String("label", "", "label for this entry (required; e.g. seed, after-arena)")
	out := fs.String("o", "", "trajectory file (default BENCH_<today>.json)")
	benchtime := fs.Duration("benchtime", time.Second, "minimum run time per benchmark")
	guard := fs.Bool("guard", false, "fail if PushButton/1-ranks allocations regress vs the file's last entry")
	loadPath := fs.String("load", "", "ingest a meshload summary JSON as the Meshd/load throughput/latency column")
	loadOnly := fs.Bool("load-only", false, "with -load: skip the benchmark suite and record only the Meshd/load column")
	loadGuard := fs.Bool("load-guard", false, "fail if Meshd/load throughput or p99 regress vs the file's last comparable entry")
	timeout := fs.Duration("timeout", 0, "abort the whole report after this duration (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *label == "" {
		return errors.New("-label is required")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().Format("2006-01-02") + ".json"
	}

	e := entry{
		Label:      *label,
		Timestamp:  time.Now().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]benchResult{},
	}

	if *loadOnly && *loadPath == "" {
		return errors.New("-load-only requires -load")
	}
	if *loadPath != "" {
		lr, err := ingestLoad(*loadPath)
		if err != nil {
			return err
		}
		e.Benchmarks["Meshd/load"] = lr
	}
	if *loadOnly {
		return finish(path, e, *guard, *loadGuard)
	}

	for _, ranks := range []int{1, 2, 4} {
		name := fmt.Sprintf("PushButton/%d-ranks", ranks)
		fmt.Fprintf(os.Stderr, "running %s...\n", name)
		r, err := runPushButton(ctx, ranks, false, false, *benchtime)
		if err != nil {
			return err
		}
		e.Benchmarks[name] = r
	}
	// The audited run tracks verification overhead: same workload as
	// PushButton/1-ranks plus the invariant-audit stage. The allocation
	// guard stays on the unaudited single-rank entry.
	fmt.Fprintln(os.Stderr, "running PushButton/1-ranks-audit...")
	ra, err := runPushButton(ctx, 1, true, false, *benchtime)
	if err != nil {
		return err
	}
	e.Benchmarks["PushButton/1-ranks-audit"] = ra
	// The traced run tracks the span tracer's overhead: same workload as
	// PushButton/1-ranks with a fresh tracer recording every span. Against
	// the guarded untraced entry this column is the tracer's price; the
	// guard itself stays on the untraced entry, which is what proves the
	// disabled tracer allocation-neutral.
	fmt.Fprintln(os.Stderr, "running PushButton/1-ranks-traced...")
	rt, err := runPushButton(ctx, 1, false, true, *benchtime)
	if err != nil {
		return err
	}
	e.Benchmarks["PushButton/1-ranks-traced"] = rt
	// The TCP run tracks the real-wire transport's price: the identical
	// 4-rank workload over a loopback TCP fabric (one SPMD pipeline per
	// cluster member, framing + typed codecs + result re-broadcast on the
	// wire). Against PushButton/4-ranks this column is the transport
	// overhead; the allocation guard stays on the in-process entry.
	fmt.Fprintln(os.Stderr, "running PushButton/4-ranks-tcp...")
	rw, err := runPushButtonTCP(ctx, 4, *benchtime)
	if err != nil {
		return err
	}
	e.Benchmarks["PushButton/4-ranks-tcp"] = rw
	// The adapt run tracks the cavity-operator engine: one metric-
	// adaptation cycle of the PushButton mesh against the shared analytic
	// boundary-layer metric (identical to BenchmarkPushButtonAdapt).
	// Generation happens once outside the timer; the allocation guard
	// stays on the unadapted single-rank entry.
	fmt.Fprintln(os.Stderr, "running PushButton/1-ranks-adapt...")
	rad, err := runPushButtonAdapt(*benchtime)
	if err != nil {
		return err
	}
	e.Benchmarks["PushButton/1-ranks-adapt"] = rad
	fmt.Fprintln(os.Stderr, "running Fig08Decompose128...")
	r, err := runFig08(*benchtime)
	if err != nil {
		return err
	}
	e.Benchmarks["Fig08Decompose128"] = r

	return finish(path, e, *guard, *loadGuard)
}

// finish loads the trajectory file, runs the requested guards against its
// prior entries, appends the fresh entry, rewrites the file, and prints
// the measurement table. Prior entries are rewritten verbatim, so fields
// only older entries recorded survive the append. Guard failures surface
// after the entry is persisted, so the regressing measurement is on
// record either way.
func finish(path string, e entry, guard, loadGuard bool) error {
	rep := report{}
	var raw struct {
		Entries []json.RawMessage `json:"entries"`
	}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("parse existing %s: %w", path, err)
		}
		if err := json.Unmarshal(data, &raw); err != nil {
			return fmt.Errorf("parse existing %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	guardErr := error(nil)
	if guard {
		guardErr = checkGuard(&rep, e)
	}
	if loadGuard && guardErr == nil {
		guardErr = checkLoadGuard(&rep, e)
	}
	fresh, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	raw.Entries = append(raw.Entries, fresh)
	data, err := json.MarshalIndent(&raw, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "appended entry %q to %s\n", e.Label, path)
	for name, br := range e.Benchmarks {
		if br.ThroughputRPS > 0 {
			fmt.Printf("%-24s %10.2f req/s %8.1f p50 ms %8.1f p99 ms\n",
				name, br.ThroughputRPS, br.P50Ms, br.P99Ms)
			continue
		}
		fmt.Printf("%-24s %12d ns/op %12d B/op %8d allocs/op\n",
			name, br.NsPerOp, br.BytesPerOp, br.AllocsPerOp)
	}
	return guardErr
}

// loadBench is the service-load column's benchmark name and the target of
// the -load-guard regression gate.
const loadBench = "Meshd/load"

// ingestLoad reads a meshload summary JSON (cmd/meshload -save) and
// converts it into the Meshd/load column: p50 doubles as the ns/op figure
// so trajectory tooling that only understands ns/op still sorts it
// sensibly.
func ingestLoad(path string) (benchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchResult{}, err
	}
	var s struct {
		Requests      int     `json:"requests"`
		Errors        int     `json:"errors"`
		ThroughputRPS float64 `json:"throughput_rps"`
		P50Ms         float64 `json:"p50_ms"`
		P99Ms         float64 `json:"p99_ms"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return benchResult{}, fmt.Errorf("parse meshload summary %s: %w", path, err)
	}
	if s.Requests == 0 || s.ThroughputRPS <= 0 {
		return benchResult{}, fmt.Errorf("meshload summary %s records no completed requests", path)
	}
	if s.Errors > 0 {
		return benchResult{}, fmt.Errorf("meshload summary %s has %d failed requests", path, s.Errors)
	}
	return benchResult{
		Iterations:    s.Requests,
		NsPerOp:       int64(s.P50Ms * 1e6),
		ThroughputRPS: s.ThroughputRPS,
		P50Ms:         s.P50Ms,
		P99Ms:         s.P99Ms,
	}, nil
}

// checkLoadGuard gates the Meshd/load column against the most recent
// prior entry that recorded it at the same GOMAXPROCS. Service latency in
// shared CI is far noisier than allocation counts, so the slacks are
// generous: throughput may drop up to 25%, p99 may grow up to 50% plus
// 20ms, before the guard fails. No prior entry is a warn-pass, so the
// first recorded load run seeds the trajectory without failing.
func checkLoadGuard(rep *report, e entry) error {
	cur, ok := e.Benchmarks[loadBench]
	if !ok {
		return fmt.Errorf("load-guard: entry has no %s measurement (run with -load)", loadBench)
	}
	for i := len(rep.Entries) - 1; i >= 0; i-- {
		if rep.Entries[i].GOMAXPROCS != e.GOMAXPROCS {
			continue
		}
		prev, ok := rep.Entries[i].Benchmarks[loadBench]
		if !ok || prev.ThroughputRPS <= 0 {
			continue
		}
		label := rep.Entries[i].Label
		if floor := prev.ThroughputRPS * 0.75; cur.ThroughputRPS < floor {
			return fmt.Errorf("load-guard: throughput regressed vs %q: %.2f -> %.2f req/s (floor %.2f)",
				label, prev.ThroughputRPS, cur.ThroughputRPS, floor)
		}
		if limit := prev.P99Ms*1.5 + 20; cur.P99Ms > limit {
			return fmt.Errorf("load-guard: p99 regressed vs %q: %.1f -> %.1f ms (limit %.1f)",
				label, prev.P99Ms, cur.P99Ms, limit)
		}
		fmt.Fprintf(os.Stderr, "load-guard: %s within bounds vs %q (%.2f req/s, p99 %.1f ms)\n",
			loadBench, label, cur.ThroughputRPS, cur.P99Ms)
		return nil
	}
	fmt.Fprintf(os.Stderr, "load-guard: no prior %s entry at GOMAXPROCS=%d — recording baseline\n",
		loadBench, e.GOMAXPROCS)
	return nil
}

// guardBench is the benchmark the allocation-neutrality guard watches: the
// single-rank pipeline, where every allocation is the pipeline's own.
const guardBench = "PushButton/1-ranks"

// checkGuard compares the fresh measurement of guardBench against the most
// recent prior entry that recorded it at the same GOMAXPROCS (a multi-core
// run must never gate against a single-core one).
// Wall time is too noisy to gate on, but allocation counts are
// near-deterministic, so the guard fails when bytes/op or allocs/op grow
// by more than 10% plus a small absolute slack.
func checkGuard(rep *report, e entry) error {
	cur, ok := e.Benchmarks[guardBench]
	if !ok {
		return fmt.Errorf("guard: entry has no %s measurement", guardBench)
	}
	for i := len(rep.Entries) - 1; i >= 0; i-- {
		if rep.Entries[i].GOMAXPROCS != e.GOMAXPROCS {
			continue
		}
		prev, ok := rep.Entries[i].Benchmarks[guardBench]
		if !ok {
			continue
		}
		label := rep.Entries[i].Label
		if err := neutral(label, "allocs/op", prev.AllocsPerOp, cur.AllocsPerOp); err != nil {
			return err
		}
		if err := neutral(label, "B/op", prev.BytesPerOp, cur.BytesPerOp); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "guard: %s allocation-neutral vs %q (%d B/op, %d allocs/op)\n",
			guardBench, label, cur.BytesPerOp, cur.AllocsPerOp)
		return nil
	}
	return fmt.Errorf("guard: no prior %s entry at GOMAXPROCS=%d to compare against",
		guardBench, e.GOMAXPROCS)
}

func neutral(label, what string, prev, cur int64) error {
	limit := prev + prev/10 + 16
	if cur > limit {
		return fmt.Errorf("guard: %s %s regressed vs %q: %d -> %d (limit %d)",
			guardBench, what, label, prev, cur, limit)
	}
	return nil
}

// runPushButton measures the full pipeline at the given rank count on the
// shared scaled-down configuration (identical to BenchmarkPushButton; with
// audit set, to BenchmarkPushButtonAudited). With traced set, every
// iteration runs under a fresh span tracer so the measurement includes
// the recorder's full cost (buffer growth included). A canceled ctx
// aborts between (and, via the stage engine, inside) iterations.
func runPushButton(ctx context.Context, ranks int, audit, traced bool, benchtime time.Duration) (benchResult, error) {
	cfg := benchcfg.PushButton()
	cfg.Ranks = ranks
	cfg.Audit = audit
	var genErr error
	r := bench(benchtime, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if traced {
				cfg.Tracer = trace.New(cfg.Ranks)
			}
			if _, err := core.GenerateContext(ctx, cfg); err != nil {
				genErr = err
				b.FailNow()
			}
		}
	})
	return toResult(r), genErr
}

// runPushButtonTCP measures the full pipeline over a loopback TCP fabric
// (identical to BenchmarkPushButtonTCP): the clusters bootstrap once
// outside the timed region, then every iteration runs one SPMD pipeline
// per cluster member concurrently, splitting the distributed phases over
// real TCP connections.
func runPushButtonTCP(ctx context.Context, ranks int, benchtime time.Duration) (benchResult, error) {
	clusters, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		return benchResult{}, err
	}
	defer func() {
		for _, cl := range clusters {
			cl.Close()
		}
	}()
	cfg := benchcfg.PushButton()
	cfg.Ranks = ranks
	var genErr error
	r := bench(benchtime, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, ranks)
			for p, cl := range clusters {
				wg.Add(1)
				go func(p int, cl *mpi.Cluster) {
					defer wg.Done()
					c := cfg
					c.Fabric = cl
					_, errs[p] = core.GenerateContext(ctx, c)
				}(p, cl)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					genErr = err
					b.FailNow()
				}
			}
		}
	})
	return toResult(r), genErr
}

// runFig08 measures the projection-based decomposition of the Figure 8
// boundary-layer point set (identical to BenchmarkFig08Decompose128; the
// tree build is excluded from the timing there too).
func runFig08(benchtime time.Duration) (benchResult, error) {
	pts, err := benchcfg.Fig08Points()
	if err != nil {
		return benchResult{}, err
	}
	opt := benchcfg.Fig08Options()
	r := bench(benchtime, func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			root := project.New(pts)
			b.StartTimer()
			project.Decompose(root, opt)
		}
	})
	return toResult(r), nil
}

// runPushButtonAdapt measures one metric-adaptation cycle of the cavity-
// operator engine on the PushButton mesh against the shared analytic
// boundary-layer metric (identical to BenchmarkPushButtonAdapt). The mesh
// is generated once outside the timer; Adapt does not mutate its input,
// so every iteration adapts the identical mesh.
func runPushButtonAdapt(benchtime time.Duration) (benchResult, error) {
	cfg := benchcfg.PushButton()
	cfg.Ranks = 1
	res, err := core.Generate(cfg)
	if err != nil {
		return benchResult{}, err
	}
	fn, err := metric.ParseSpec(benchcfg.AdaptMetric)
	if err != nil {
		return benchResult{}, err
	}
	f := metric.Analytic(res.Mesh, fn)
	var adaptErr error
	r := bench(benchtime, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := adapt.Adapt(res.Mesh, f, adapt.Options{Resample: fn}); err != nil {
				adaptErr = err
				b.FailNow()
			}
		}
	})
	return toResult(r), adaptErr
}

// bench runs fn under testing.Benchmark with the requested minimum run
// time (testing.Benchmark itself honors the -test.benchtime flag, which a
// plain binary does not define, so the duration is applied by registering
// it explicitly).
func bench(benchtime time.Duration, fn func(b *testing.B)) testing.BenchmarkResult {
	if f := flag.Lookup("test.benchtime"); f == nil {
		testing.Init()
	}
	flag.Set("test.benchtime", benchtime.String())
	return testing.Benchmark(fn)
}

func toResult(r testing.BenchmarkResult) benchResult {
	return benchResult{
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}
