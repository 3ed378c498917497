package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"pamg2d/internal/adapt"
	"pamg2d/internal/audit"
	"pamg2d/internal/core"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

// layerValues holds one traced op's per-layer measurements by name.
type layerValues map[string]float64

func (v layerValues) add(name string, x float64) { v[name] += x }

// runObs is what a traced op attaches to the program: a per-run tracer for
// each process (its metrics registry is where loadbal and mpi counts are
// read, by name), and the span the adapt metric builder is timed under.
type runObs struct {
	rec        *recorder
	parent, op int
	tracers    []*trace.Tracer
	mesh       *mesh.Mesh
	adapt      *adapt.Result
	fieldS     float64 // seconds in the metric-field builder
}

func newObs(rec *recorder, parent, op, procs int) *runObs {
	o := &runObs{rec: rec, parent: parent, op: op}
	for p := 0; p < procs; p++ {
		o.tracers = append(o.tracers, trace.New(ranks))
	}
	return o
}

func (o *runObs) attach(cfg core.Config, p int) core.Config {
	if o != nil {
		cfg.Tracer = o.tracers[p]
	}
	return cfg
}

func (o *runObs) setMesh(m *mesh.Mesh) {
	if o != nil {
		o.mesh = m
	}
}

func (o *runObs) setAdapt(r *adapt.Result) {
	if o != nil {
		o.adapt = r
	}
}

// wrapField times the metric-field builder in a metric.field span.
func (o *runObs) wrapField(f func(*mesh.Mesh) (metric.Field, error)) func(*mesh.Mesh) (metric.Field, error) {
	if o == nil {
		return f
	}
	return func(m *mesh.Mesh) (fl metric.Field, err error) {
		o.fieldS += o.rec.time("metric.field", o.parent, o.op, func() { fl, err = f(m) })
		return fl, err
	}
}

// registry sums the named counters and gauges over the run registries of
// every process.
func (o *runObs) registry(v layerValues) {
	for _, t := range o.tracers {
		snap := t.Metrics().Snapshot()
		v.add("loadbal.tasks", float64(snap.Counters["tasks.total"]))
		v.add("steals.requests", float64(snap.Counters["steals.requests"]))
		v.add("steals.granted", float64(snap.Counters["steals.granted"]))
		v.add("loadbal.idle_s", snap.Gauges["steals.idle_seconds"])
		v.add("mpi.messages", snap.Gauges["wire.messages"])
		v.add("mpi.wire_bytes", snap.Gauges["wire.bytes"])
	}
}

// tracedRun is the result of a traced run.
type tracedRun struct {
	ops      []outcome     // every op, untraced and traced, for the checks
	untraced []float64     // wall of the untraced ops
	goodTris float64       // triangles of the untraced ops that passed
	vals     []layerValues // one per traced op
	rec      *recorder
}

// traced runs the closed loop for dur, alternating an untraced op (timed,
// with Go runtime deltas) and a traced op on the same input (Engine.Run
// with per-run tracers, then the layer replay). Alternating on one input
// keeps the tracing overhead a like-for-like difference.
func traced(ctx context.Context, s *session, seed int64, dur time.Duration) (*tracedRun, error) {
	tr := &tracedRun{rec: newRecorder()}
	// naca-bl carries the scaling comparison (the same inputs at one rank)
	// and the wire comparison (the same inputs over a loopback TCP pair),
	// so both are measured on a workload whose end-to-end figures are
	// gated; farfield-tcp compares against the in-process engine instead.
	var r1 *core.Engine
	var wire *session
	if s.w.name == "naca-bl" {
		var err error
		if r1, err = core.NewEngine(core.EngineConfig{Ranks: 1}); err != nil {
			return nil, err
		}
		defer r1.Close()
		wire = &session{w: s.w}
		defer wire.close()
		if err := wire.openTCP(ctx); err != nil {
			return nil, err
		}
	}
	procs := 1
	if s.w.kind == kindTCP {
		procs = len(s.tcp)
	}
	next := opSequence(seed)
	start := time.Now()
	for i := 0; keepGoing(time.Since(start), dur, i); i++ {
		k := next()
		v := layerValues{}

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		o := s.timedOp(ctx, k, nil)
		runtime.ReadMemStats(&m1)
		gets, puts := mpi.PoolCounters()
		v.add("go.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs))
		v.add("go.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc))
		v.add("go.gc_pause_s", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e9)
		v.add("mpi.pool_outstanding", float64(gets-puts))
		tr.ops = append(tr.ops, o)
		tr.untraced = append(tr.untraced, o.Seconds)
		if o.Err == nil {
			tr.goodTris += float64(o.Tris)
		}

		root := tr.rec.begin("op", -1, i)
		obs := newObs(tr.rec, root, i, procs)
		in := s.inputs[k]
		if s.w.kind == kindAdapt {
			var ot outcome
			v.add("adapt.cycle_s", tr.rec.time("adapt.cycles", root, i, func() { ot = s.timedOp(ctx, k, obs) }))
			tr.ops = append(tr.ops, ot)
			if ot.Err == nil {
				r := obs.adapt
				v.add("adapt.sweeps", float64(r.Sweeps))
				v.add("adapt.ops", float64(r.Splits+r.Collapses+r.Swaps+r.Smooths))
				v.add("adapt.conflicts", float64(r.Conflicts))
				v.add("adapt.in_band", r.InBand)
				v.add("metric.field_s", obs.fieldS)
				v.add("audit.adapted_s", tr.rec.time("audit.adapted", root, i, func() {
					audit.Run(&audit.Snapshot{Mesh: obs.mesh}, audit.Adapted())
				}))
			}
		} else {
			var ot outcome
			runS := tr.rec.time("core.run", root, i, func() { ot = s.timedOp(ctx, k, obs) })
			tr.ops = append(tr.ops, ot)
			v.add("core.run_s", runS)
			if ot.Err == nil {
				v.add("core.tris", float64(ot.Tris))
			}
			obs.registry(v)
			replayPipeline(tr.rec, root, i, in.cfg, obs.mesh, v)
			v.add("core.glue_s", runS-replayedWall(v))
			if s.w.kind == kindTCP {
				inS := tr.rec.time("mpi.inproc", root, i, func() { _, _ = s.eng.Run(ctx, in.cfg) })
				v.add("mpi.tcp_tax_s", o.Seconds-inS)
			}
			if wire != nil {
				tcpS := tr.rec.time("mpi.tcp", root, i, func() { _, _ = wire.runTCP(ctx, in.cfg, nil) })
				v.add("mpi.tcp_tax_s", tcpS-o.Seconds)
			}
			if r1 != nil {
				c := in.cfg
				c.Ranks = 1
				v.add("scale.r1_s", tr.rec.time("scale.r1", root, i, func() { _, _ = r1.Run(ctx, c) }))
			}
		}
		tr.rec.end(root)
		tr.vals = append(tr.vals, v)
	}
	return tr, nil
}

// replayedWall is the replay's share of the pipeline's critical path: the
// root-side layer calls plus the wall of each replayed distributed stage.
func replayedWall(v layerValues) float64 {
	t := 0.0
	for _, k := range []string{"pslg.graph_s", "blayer.rays_s", "blayer.insert_s", "project.decompose_s",
		"stage.bl_wall_s", "sizing.graded_s", "decouple.split_s", "stage.refine_wall_s", "audit.run_s"} {
		t += v[k]
	}
	return t
}

// perLayer is the traced run's metric list, in print order. BENCHMARK.json
// lists the same names and units.
var perLayer = []struct{ name, unit string }{
	{"core.run_s", "s"}, {"core.glue_s", "s"}, {"core.tris", "count"},
	{"pslg.graph_s", "s"},
	{"blayer.rays_s", "s"}, {"blayer.insert_s", "s"}, {"blayer.points", "count"}, {"blayer.fan_rays", "count"},
	{"project.decompose_s", "s"}, {"project.leaves", "count"},
	{"delaunay.bl_s", "s"}, {"delaunay.bl_tri_per_s", "1/s"}, {"delaunay.refine_s", "s"}, {"delaunay.refine_tri_per_s", "1/s"},
	{"sizing.graded_s", "s"},
	{"decouple.split_s", "s"}, {"decouple.regions", "count"}, {"decouple.imbalance", "ratio"},
	{"audit.run_s", "s"}, {"audit.elements", "count"}, {"audit.adapted_s", "s"},
	{"loadbal.tasks", "count"}, {"loadbal.steal_requests", "count"}, {"loadbal.steal_grant_ratio", "ratio"}, {"loadbal.idle_s", "s"},
	{"mpi.messages", "count"}, {"mpi.wire_bytes", "B"}, {"mpi.tcp_tax_s", "s"}, {"mpi.pool_outstanding", "count"},
	{"adapt.cycle_s", "s"}, {"adapt.sweeps", "count"}, {"adapt.ops", "count"}, {"adapt.conflicts", "count"},
	{"adapt.commit_ratio", "ratio"}, {"adapt.in_band", "ratio"}, {"metric.field_s", "s"},
	{"go.mallocs_per_op", "count"}, {"go.alloc_bytes_per_op", "B"}, {"go.gc_pause_s", "s"},
	{"scale.r1_s", "s"}, {"scale.speedup_r2", "ratio"},
	{"trace.overhead_s", "s"},
	{"wall.op_s_p50", "s"}, {"wall.tri_per_s", "1/s"},
}

// layerResult is one per-layer metric as printed: its value, and a note
// with the ratio's base or why it is absent.
type layerResult struct {
	Name, Unit string
	Value      float64
	Note       string
}

// aggregate folds the traced ops into the per-layer metrics: medians over
// ops for times and counts, ratios of sums (with their base) for ratios.
// A layer the workload does not run reads 0 and says so.
func (tr *tracedRun) aggregate(kind kind) []layerResult {
	med := func(k string) (float64, bool) {
		var xs []float64
		for _, v := range tr.vals {
			if x, ok := v[k]; ok {
				xs = append(xs, x)
			}
		}
		return median(xs), len(xs) > 0
	}
	sum := func(k string) float64 {
		t := 0.0
		for _, v := range tr.vals {
			t += v[k]
		}
		return t
	}
	untraced := median(tr.untraced)
	out := make([]layerResult, 0, len(perLayer))
	for _, m := range perLayer {
		r := layerResult{Name: m.name, Unit: m.unit}
		var ok bool
		switch m.name {
		case "delaunay.bl_tri_per_s", "delaunay.refine_tri_per_s":
			layer := m.name[:len(m.name)-len("_tri_per_s")]
			busy := sum(layer + "_s")
			r.Value, ok = safeDiv(sum(layer+"_tris"), busy)
			r.Note = fmt.Sprintf("%.0f triangles in %.4g s", sum(layer+"_tris"), busy)
		case "loadbal.steal_requests":
			r.Value, ok = med("steals.requests")
		case "loadbal.steal_grant_ratio":
			req := sum("steals.requests")
			r.Value, ok = safeDiv(sum("steals.granted"), req)
			r.Note = fmt.Sprintf("%.0f granted of %.0f requests", sum("steals.granted"), req)
		case "adapt.commit_ratio":
			ops, conf := sum("adapt.ops"), sum("adapt.conflicts")
			r.Value, ok = safeDiv(ops, ops+conf)
			r.Note = fmt.Sprintf("%.0f ops, %.0f conflicts", ops, conf)
		case "scale.speedup_r2":
			r1, has := med("scale.r1_s")
			if has {
				r.Value, ok = safeDiv(r1, untraced)
				r.Note = fmt.Sprintf("r1 %.4g s / r2 %.4g s", r1, untraced)
			}
		case "mpi.pool_outstanding":
			if n := len(tr.vals); n > 0 {
				r.Value, ok = tr.vals[n-1][m.name], true
				r.Note = "pool gets - puts, cumulative, after the last op"
			}
		case "wall.op_s_p50":
			r.Value, ok = untraced, len(tr.untraced) > 0
			r.Note = "median wall time of the untraced ops"
		case "wall.tri_per_s":
			busy := 0.0
			for _, x := range tr.untraced {
				busy += x
			}
			r.Value, ok = safeDiv(tr.goodTris, busy)
			r.Note = fmt.Sprintf("%.0f triangles in %.4g s of untraced ops", tr.goodTris, busy)
		case "trace.overhead_s":
			main, has := med("core.run_s")
			if !has {
				main, has = med("adapt.cycle_s")
			}
			r.Value, ok = main-untraced, has
			r.Note = fmt.Sprintf("traced %.4g s - untraced op_s_p50 %.4g s", main, untraced)
		default:
			r.Value, ok = med(m.name)
		}
		if !ok {
			r.Value, r.Note = 0, "absent: "+absentReason(m.name, kind)
		}
		out = append(out, r)
	}
	return out
}

func safeDiv(a, b float64) (float64, bool) {
	if b == 0 {
		return 0, false
	}
	return a / b, true
}

// absentReason says why a per-layer metric has no measurement.
func absentReason(name string, k kind) string {
	switch {
	case name == "mpi.tcp_tax_s":
		return "measured on naca-bl and farfield-tcp only"
	case name == "scale.r1_s" || name == "scale.speedup_r2":
		return "measured on naca-bl only"
	case k == kindAdapt && !strings.HasPrefix(name, "adapt.") && !strings.HasPrefix(name, "metric.") &&
		name != "audit.adapted_s":
		return "layer not run by this workload"
	case k != kindAdapt && (strings.HasPrefix(name, "adapt.") || strings.HasPrefix(name, "metric.") ||
		name == "audit.adapted_s"):
		return "layer not run by this workload"
	case name == "loadbal.steal_grant_ratio":
		return "no steal requests (base 0)"
	}
	return "no traced op succeeded"
}
