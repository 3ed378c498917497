// Command pamgbench is the pamg2d benchmark: time to an audited mesh on
// named workloads, driven through the public engine and adaptation API from
// one closed-loop client, with every output checked. With --trace 1 it
// instead replays each input through the layer packages with spans around
// each call and prints the per-layer metrics. See README.md.
//
// Run it from the repository root:
//
//	bash pamgbench/run.sh --workload naca-bl --seed 1 --seconds 50 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runLimit bounds a whole run, set-up and checks included.
const runLimit = 170 * time.Second

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pamgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: naca-bl, 30p30n, farfield-tcp or adapt-bl")
	seed := fs.Int64("seed", 1, "seed of the input pool and op sequence")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	outDir := fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "pamgbench:", err)
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "pamgbench: --trace must be 0 or 1")
		return 2
	}
	host := fingerprint()
	if host.GOMAXPROCS < ranks {
		fmt.Fprintf(stderr, "pamgbench: refusing to record: GOMAXPROCS=%d is below the %d ranks the workloads use\n", host.GOMAXPROCS, ranks)
		return 3
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	dur := time.Duration(*seconds * float64(time.Second))

	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %d  ranks %d  closed loop, 1 client, 1 op in flight\n",
		w.name, *seed, *seconds, *traceMode, ranks)
	fmt.Fprintf(stdout, "host %s\n", host)

	s, setupS, setupWall, err := setUp(ctx, w, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "pamgbench: set-up:", err)
		return 1
	}
	defer s.close()
	aoas := make([]string, len(s.inputs))
	for i, in := range s.inputs {
		aoas[i] = fmt.Sprintf("%.3f", in.aoa)
	}
	fmt.Fprintf(stdout, "input pool (AoA, degrees): %v\n", aoas)

	res := resultJSON{Metrics: map[string]metricJSON{}}
	var ops []outcome
	if *traceMode == 0 {
		var wall, cpu float64
		ops, wall, cpu = measure(ctx, s, *seed, dur)
		s.check(ctx, ops)
		sum := summarize(ops, wall, cpu)
		rss := peakRSSMB()
		printEndToEnd(stdout, w, sum, setupS, setupWall, rss)
		res.Metrics = endToEnd(sum, setupS, rss)
	} else {
		tr, err := traced(ctx, s, *seed, dur)
		if err != nil {
			fmt.Fprintln(stderr, "pamgbench: traced run:", err)
			return 1
		}
		ops = tr.ops
		s.check(ctx, ops)
		sum := summarize(ops, 0, 0)
		fmt.Fprintf(stdout, "ops %d (untraced and traced), failed %d, untraced op_s_p50 %.4f s\n",
			sum.Attempted, sum.Failed, median(tr.untraced))
		printErrors(stdout, sum.Errors)
		fmt.Fprintln(stdout, "per-layer metrics (medians over traced ops unless noted):")
		for _, m := range tr.aggregate(w.kind) {
			fmt.Fprintf(stdout, "  %-26s %14.6g %-5s  %s\n", m.Name, m.Value, m.Unit, m.Note)
			res.Metrics[m.Name] = metricJSON{m.Value, m.Unit}
		}
		printSelfTimes(stdout, tr.rec.snapshot())
		if err := writeSpans(tr.rec, *outDir, w.name, *seed); err != nil {
			fmt.Fprintln(stderr, "pamgbench: writing spans:", err)
		}
	}
	for _, o := range ops {
		res.Attempted++
		if o.Err != nil {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "pamgbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEnd is the untraced run's metric set, the end_to_end list of
// BENCHMARK.json. Its times are CPU times: on a shared virtual machine the
// wall time of the same code moves by a quarter or more from one run to the
// next with what the neighbours do, while the CPU time the process is
// charged moves by a few percent. The wall-time figures op_s_p50,
// op_s_tail and tri_per_s are printed next to them, and the traced run
// reports wall.op_s_p50 and wall.tri_per_s. fail_ratio and in_band are
// printed but not listed: on a passing workload fail_ratio is always 0,
// which no relative bound can gate, and in_band exists on adapt-bl alone
// (it is checked there instead).
func endToEnd(s summary, setupS, rss float64) map[string]metricJSON {
	return map[string]metricJSON{
		"op_cpu_s_p50":  {s.CPUP50, "s"},
		"op_cpu_s_tail": {s.CPUTail.Value, "s"},
		"tri_per_cpu_s": {s.TriPerCPUS, "1/s"},
		"setup_s":       {setupS, "s"},
		"peak_rss_mb":   {rss, "MB"},
	}
}

func printEndToEnd(w io.Writer, wl *workload, s summary, setupS, setupWall, rss float64) {
	fmt.Fprintf(w, "%-14s %12.6f s      median CPU time of %d ops, all threads\n", "op_cpu_s_p50", s.CPUP50, s.Attempted)
	fmt.Fprintf(w, "%-14s %12.6f s      %s\n", "op_cpu_s_tail", s.CPUTail.Value, s.CPUTail)
	fmt.Fprintf(w, "%-14s %12.1f 1/s    triangles of outputs that passed every check per CPU second\n", "tri_per_cpu_s", s.TriPerCPUS)
	fmt.Fprintf(w, "%-14s %12.6f s      median wall time of %d ops (not gated)\n", "op_s_p50", s.P50, s.Attempted)
	fmt.Fprintf(w, "%-14s %12.6f s      %s (not gated)\n", "op_s_tail", s.Tail.Value, s.Tail)
	fmt.Fprintf(w, "%-14s %12.1f 1/s    the same triangles per wall second (not gated)\n", "tri_per_s", s.TriPerS)
	fmt.Fprintf(w, "%-14s %12.4f ratio  %d failed of %d attempted\n", "fail_ratio", s.FailRatio, s.Failed, s.Attempted)
	if wl.kind == kindAdapt {
		fmt.Fprintf(w, "%-14s %12.4f ratio  median edge share with metric length in [1/sqrt2, sqrt2]\n", "in_band", s.InBand)
	} else {
		fmt.Fprintf(w, "%-14s %12s        adapt-bl only\n", "in_band", "-")
	}
	fmt.Fprintf(w, "%-14s %12.6f s      median CPU time of %d set-ups, each with one warm-up op (wall %.6f s)\n",
		"setup_s", setupS, setupRepeats, setupWall)
	fmt.Fprintf(w, "%-14s %12.1f MB     VmHWM\n", "peak_rss_mb", rss)
	printErrors(w, s.Errors)
}

func printErrors(w io.Writer, f failures) {
	if len(f) == 0 {
		return
	}
	fmt.Fprintln(w, "failures by first error line:")
	for _, l := range f.lines() {
		fmt.Fprintln(w, l)
	}
}

// printSelfTimes prints each span name's total and self time over the run.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct{ total, self float64 }
	byName := map[string]*agg{}
	var order []string
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.total += s.dur()
		a.self += self[s.ID]
	}
	fmt.Fprintln(w, "spans (summed over the run):      total s      self s")
	for _, n := range order {
		fmt.Fprintf(w, "  %-26s %12.4f %12.4f\n", n, byName[n].total, byName[n].self)
	}
}

func writeSpans(rec *recorder, dir, name string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)))
	if err != nil {
		return err
	}
	if err := rec.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	kb, _ := statusField(string(b), "VmHWM:")
	return kb / 1024
}
