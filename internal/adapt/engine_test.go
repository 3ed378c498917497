package adapt

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
	"pamg2d/internal/trace"
)

// egrid builds an n×n structured triangulation of the unit square.
func egrid(t testing.TB, n int) *mesh.Mesh {
	t.Helper()
	b := mesh.NewBuilder()
	h := 1.0 / float64(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			x0, y0 := float64(i)*h, float64(j)*h
			x1, y1 := x0+h, y0+h
			b.AddTriangle(geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1))
			b.AddTriangle(geom.Pt(x0, y0), geom.Pt(x1, y1), geom.Pt(x0, y1))
		}
	}
	m := b.Mesh()
	if err := m.Audit(); err != nil {
		t.Fatalf("grid mesh: %v", err)
	}
	return m
}

// structuralEach audits every intermediate mesh.
func structuralEach(t *testing.T) func(int, *mesh.Mesh) error {
	t.Helper()
	return func(sweep int, m *mesh.Mesh) error {
		if err := m.Audit(); err != nil {
			return fmt.Errorf("after sweep %d: %w", sweep, err)
		}
		return nil
	}
}

func TestAdaptUniformRefine(t *testing.T) {
	m := egrid(t, 4)
	h := 1.0 / 16 // four-fold refinement target
	iso := func(geom.Point) metric.M { return metric.Iso(h) }
	out, res, err := Adapt(m, metric.Analytic(m, iso), Options{
		Resample:  iso,
		CheckEach: structuralEach(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits == 0 {
		t.Fatal("refinement produced no splits")
	}
	if res.InBand < 0.9 {
		t.Fatalf("InBand = %.3f after %d sweeps (splits %d collapses %d swaps %d smooths %d)",
			res.InBand, res.Sweeps, res.Splits, res.Collapses, res.Swaps, res.Smooths)
	}
	if got, want := out.Area(), m.Area(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("area changed: %g -> %g", want, got)
	}
	if out.NumTriangles() <= m.NumTriangles() {
		t.Fatalf("refinement shrank the mesh: %d -> %d triangles",
			m.NumTriangles(), out.NumTriangles())
	}
}

func TestAdaptUniformCoarsen(t *testing.T) {
	// 16 -> 5: the coarse pitch is incommensurate with the fine grid, so
	// no edge lands exactly on the band boundary.
	m := egrid(t, 16)
	h := 1.0 / 5
	iso := func(geom.Point) metric.M { return metric.Iso(h) }
	out, res, err := Adapt(m, metric.Analytic(m, iso), Options{
		Resample:  iso,
		CheckEach: structuralEach(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collapses == 0 {
		t.Fatal("coarsening produced no collapses")
	}
	if res.InBand < 0.9 {
		t.Fatalf("InBand = %.3f after %d sweeps (splits %d collapses %d)",
			res.InBand, res.Sweeps, res.Splits, res.Collapses)
	}
	if got, want := out.Area(), m.Area(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("area changed: %g -> %g", want, got)
	}
	if out.NumTriangles() >= m.NumTriangles() {
		t.Fatalf("coarsening grew the mesh: %d -> %d triangles",
			m.NumTriangles(), out.NumTriangles())
	}
}

// TestAdaptAnisotropicBL is the acceptance test: a boundary-layer metric
// along the bottom wall must pull >= 90% of the edges into the quasi-unit
// band, with every intermediate mesh structurally sound.
func TestAdaptAnisotropicBL(t *testing.T) {
	m := egrid(t, 8)
	f, err := metric.ParseSpec("bl:x0=0,y0=0,x1=1,y1=0,hn=0.02,ht=0.2,grow=0.6")
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := Adapt(m, metric.Analytic(m, f), Options{
		Resample:  f,
		CheckEach: structuralEach(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InBand < 0.9 {
		t.Fatalf("InBand = %.3f after %d sweeps (splits %d collapses %d swaps %d smooths %d, %d edges)",
			res.InBand, res.Sweeps, res.Splits, res.Collapses, res.Swaps, res.Smooths, res.Edges)
	}
	if err := out.Audit(); err != nil {
		t.Fatal(err)
	}
	if got, want := out.Area(), m.Area(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("area changed: %g -> %g", want, got)
	}
	// The wall band must actually be anisotropic: stretched triangles
	// hugging y=0.
	st, err := metric.FieldStats(out, metric.Analytic(out, f), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxAspect < 5 {
		t.Fatalf("metric max aspect %g, want boundary-layer anisotropy", st.MaxAspect)
	}
}

// TestAdaptDeterministicWorkers demands byte-identical output for every
// worker count; Workers 0 resolves to the sequential path.
func TestAdaptDeterministicWorkers(t *testing.T) {
	f, err := metric.ParseSpec("bl:x0=0,y0=0,x1=1,y1=0,hn=0.03,ht=0.2,grow=0.7")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *mesh.Mesh {
		m := egrid(t, 6)
		out, _, err := Adapt(m, metric.Analytic(m, f), Options{
			Workers:  workers,
			Resample: f,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, w := range []int{0, 2, 3, 4, 7} {
		got := run(w)
		if !reflect.DeepEqual(ref.Points, got.Points) || !reflect.DeepEqual(ref.Triangles, got.Triangles) {
			t.Fatalf("workers=%d: adapted mesh differs from sequential result", w)
		}
	}
}

// TestAdaptWorkersMatchSequential runs a refining uniform field at 1 and 3
// workers and demands the identical mesh and operation counts.
func TestAdaptWorkersMatchSequential(t *testing.T) {
	f, err := metric.ParseSpec("uniform:h=0.08")
	if err != nil {
		t.Fatal(err)
	}
	m := egrid(t, 5)
	ref, refRes, err := Adapt(m, metric.Analytic(m, f), Options{Resample: f, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m3 := egrid(t, 5)
	got, res, err := Adapt(m3, metric.Analytic(m3, f), Options{Resample: f, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Points, got.Points) || !reflect.DeepEqual(ref.Triangles, got.Triangles) {
		t.Fatalf("Workers=3 mesh differs from sequential mesh (%d vs %d triangles)",
			got.NumTriangles(), ref.NumTriangles())
	}
	if *res != *refRes {
		t.Fatalf("Workers=3 report %+v differs from sequential %+v", *res, *refRes)
	}
	if res.Splits == 0 {
		t.Fatal("refining field planned no splits")
	}
}

// TestAdaptConcurrent exercises the parallel evaluate/commit phases on a
// larger problem; under -race this is the engine's data-race gate.
func TestAdaptConcurrent(t *testing.T) {
	f, err := metric.ParseSpec("bl:x0=0,y0=0,x1=1,y1=0,hn=0.015,ht=0.12,grow=0.5")
	if err != nil {
		t.Fatal(err)
	}
	m := egrid(t, 10)
	out, res, err := Adapt(m, metric.Analytic(m, f), Options{
		Workers:  8,
		Resample: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Audit(); err != nil {
		t.Fatal(err)
	}
	if res.InBand < 0.85 {
		t.Fatalf("InBand = %.3f, want >= 0.85", res.InBand)
	}
}

func TestAdaptTracerMetrics(t *testing.T) {
	tr := trace.New(1)
	f := func(geom.Point) metric.M { return metric.Iso(0.1) }
	m := egrid(t, 4)
	_, res, err := Adapt(m, metric.Analytic(m, f), Options{
		Resample: f, Tracer: tr, MaxSweeps: 3, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("%d spans leaked", tr.OpenSpans())
	}
	if tr.Events() == 0 {
		t.Fatal("no trace events recorded")
	}
	snap := tr.Metrics().Snapshot()
	found := false
	for name := range snap.Counters {
		if name == "adapt.split" {
			found = true
		}
	}
	if !found {
		t.Fatalf("adapt.split counter missing from %v", snap.Counters)
	}
	// The registry agrees with the Result: every plan is either committed
	// or lost to a vertex-claim conflict.
	c := snap.Counters
	ops := int64(res.Splits + res.Collapses + res.Swaps + res.Smooths)
	if res.Conflicts == 0 {
		t.Fatalf("no vertex-claim conflicts in %+v: the counters are not exercised", *res)
	}
	if c["adapt.conflicts"] != int64(res.Conflicts) {
		t.Fatalf("adapt.conflicts = %d, Result.Conflicts = %d", c["adapt.conflicts"], res.Conflicts)
	}
	if got := c["adapt.split"] + c["adapt.collapse"] + c["adapt.swap"] + c["adapt.smooth"]; got != ops {
		t.Fatalf("per-kind counters sum to %d, Result ops %d", got, ops)
	}
	if c["adapt.planned"] != ops+int64(res.Conflicts) {
		t.Fatalf("adapt.planned = %d, want ops %d + conflicts %d", c["adapt.planned"], ops, res.Conflicts)
	}
}

func TestAdaptInputErrors(t *testing.T) {
	m := egrid(t, 2)
	f := metric.Uniform(m, 0.5)
	if _, _, err := Adapt(m, f[:2], Options{}); err == nil {
		t.Fatal("field length mismatch accepted")
	}
	bad := append(metric.Field(nil), f...)
	bad[0] = metric.M{XX: -1, YY: 1}
	if _, _, err := Adapt(m, bad, Options{}); err == nil {
		t.Fatal("non-SPD tensor accepted")
	}
}

// TestAdaptNoOp: a mesh already in band must come back unchanged.
func TestAdaptNoOp(t *testing.T) {
	m := egrid(t, 4)
	f := metric.Uniform(m, 0.25) // exactly the grid pitch
	out, res, err := Adapt(m, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Sweeps != 1 {
		t.Fatalf("expected immediate convergence, got %+v", res)
	}
	if res.Splits+res.Collapses != 0 {
		t.Fatalf("no-op adaptation changed the mesh: %+v", res)
	}
	if out.NumTriangles() != m.NumTriangles() {
		t.Fatalf("triangle count changed: %d -> %d", m.NumTriangles(), out.NumTriangles())
	}
}

// TestIndicatorEdgeCases covers the isotropic indicator's degenerate
// inputs: a single-triangle mesh (no interior faces), zero-area cells,
// and a mismatched field length.
func TestIndicatorEdgeCases(t *testing.T) {
	b := mesh.NewBuilder()
	b.AddTriangle(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1))
	single := b.Mesh()
	eta, err := Indicator(single, []float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(eta) != 1 || eta[0] != 0 {
		t.Fatalf("single triangle: eta = %v, want [0]", eta)
	}

	if _, err := Indicator(single, []float64{1, 2}); err == nil {
		t.Fatal("mismatched field length accepted")
	}

	// Zero-area cell: the indicator must stay finite and the derived
	// sizing must respect its floor.
	deg := &mesh.Mesh{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(0.5, 0),
		},
		Triangles: [][3]int32{{0, 1, 2}, {0, 1, 3}},
	}
	eta, err = Indicator(deg, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range eta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("cell %d: indicator %v", i, v)
		}
	}
	sz, err := SizingFromIndicator(deg, eta, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if v := sz(geom.Pt(0.4, 0.1)); v <= 0 || math.IsNaN(v) {
		t.Fatalf("sizing at degenerate cell: %v", v)
	}
}

// TestLogMetricInStep: after every sweep the engine's per-vertex log
// cache holds exactly met[v].Log() for every live vertex, on both the
// interpolating and the resampling path.
func TestLogMetricInStep(t *testing.T) {
	f, err := metric.ParseSpec("bl:x0=0,y0=0,x1=1,y1=0,hn=0.02,ht=0.2,grow=0.6")
	if err != nil {
		t.Fatal(err)
	}
	for _, resample := range []bool{false, true} {
		m := egrid(t, 8)
		opt := Options{Workers: 2}
		if resample {
			opt.Resample = f
		}
		e, err := newEngine(m, metric.Analytic(m, f), opt)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		e.opt.CheckEach = func(sweep int, _ *mesh.Mesh) error {
			tp := e.tp
			if len(tp.lmet) != len(tp.met) {
				return fmt.Errorf("sweep %d: %d logs for %d tensors", sweep, len(tp.lmet), len(tp.met))
			}
			for v := range tp.met {
				if tp.vtri[v] < 0 {
					continue
				}
				if want := tp.met[v].Log(); !sameBits(tp.lmet[v], want) {
					return fmt.Errorf("sweep %d vertex %d: cached log %+v, want %+v", sweep, v, tp.lmet[v], want)
				}
			}
			checked++
			return nil
		}
		if err := e.run(); err != nil {
			t.Fatalf("resample %v: %v", resample, err)
		}
		if checked == 0 || e.res.Smooths == 0 || e.res.Collapses == 0 {
			t.Fatalf("resample %v: %d sweeps checked, result %+v: the moving operators did not run", resample, checked, e.res)
		}
	}
}

func sameBits(a, b metric.M) bool {
	return math.Float64bits(a.XX) == math.Float64bits(b.XX) &&
		math.Float64bits(a.XY) == math.Float64bits(b.XY) &&
		math.Float64bits(a.YY) == math.Float64bits(b.YY)
}
