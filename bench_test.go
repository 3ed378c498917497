package pamg2d

// One benchmark per figure of the paper's evaluation (it has no numbered
// tables), plus the in-text measurements and the ablation studies listed
// in DESIGN.md section 5. Benchmarks that reproduce a *result* rather than
// a *speed* report the result through b.ReportMetric so `go test -bench`
// output carries the reproduced numbers next to the timings.

import (
	"context"
	"io"
	"sync"
	"testing"

	"pamg2d/internal/adapt"
	"pamg2d/internal/adt"
	"pamg2d/internal/airfoil"
	"pamg2d/internal/benchcfg"
	"pamg2d/internal/blayer"
	"pamg2d/internal/core"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/growth"
	"pamg2d/internal/metric"
	"pamg2d/internal/mpi"
	"pamg2d/internal/perfmodel"
	"pamg2d/internal/project"
	"pamg2d/internal/pslg"
	"pamg2d/internal/sizing"
	"pamg2d/internal/solver"
)

// benchConfig is the shared scaled-down configuration: NACA 0012,
// moderately fine boundary layer, rank-2 pipeline. It lives in
// internal/benchcfg so cmd/benchreport measures the identical workload.
func benchConfig() core.Config {
	return benchcfg.PushButton()
}

// BenchmarkFig02SurfaceNormals measures the surface-normal computation of
// Figure 2 at the paper's stated input size (1,500 surface vertices).
func BenchmarkFig02SurfaceNormals(b *testing.B) {
	cfg := airfoil.Single(airfoil.NACA0012, 750, 30)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	pts := g.Surfaces[0].Points
	b.ReportMetric(float64(len(pts)), "surface-verts")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blayer.VertexNormals(pts)
	}
}

// BenchmarkFig04CuspFans measures boundary-layer generation with the fan
// of curved rays at the sharp trailing edge (Figures 3 and 4) and reports
// how many fan rays the cusps emitted.
func BenchmarkFig04CuspFans(b *testing.B) {
	cfg := airfoil.ThreeElement(96)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	p := blayer.DefaultParams()
	var fans int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layers := blayer.Generate(g, p)
		fans = 0
		for _, l := range layers {
			fans += l.Stats.FanRays
		}
	}
	b.ReportMetric(float64(fans), "fan-rays")
}

// BenchmarkFig05IsotropyCutoff measures point insertion with the smooth
// transition to isotropy (Figure 5) and reports the spread in layer counts
// that produces the variable boundary-layer height.
func BenchmarkFig05IsotropyCutoff(b *testing.B) {
	cfg := airfoil.Single(airfoil.NACA0012, 256, 30)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	p := blayer.DefaultParams()
	p.MaxLayers = 100
	var minL, maxL int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layers := blayer.Generate(g, p)
		minL, maxL = 1<<30, 0
		for _, pts := range layers[0].Points {
			if len(pts) < minL {
				minL = len(pts)
			}
			if len(pts) > maxL {
				maxL = len(pts)
			}
		}
	}
	b.ReportMetric(float64(minL), "min-layers")
	b.ReportMetric(float64(maxL), "max-layers")
}

// BenchmarkFig08Decompose128 measures the projection-based decomposition
// of a boundary-layer point set into 128 independent Delaunay subdomains
// (Figure 8).
func BenchmarkFig08Decompose128(b *testing.B) {
	pts, err := benchcfg.Fig08Points()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(pts)), "bl-points")
	var leaves int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := project.New(pts)
		b.StartTimer()
		ls, _ := project.Decompose(root, benchcfg.Fig08Options())
		leaves = len(ls)
	}
	b.ReportMetric(float64(leaves), "subdomains")
}

// BenchmarkFig10Decouple measures the graded Delaunay decoupling of the
// inviscid region into balanced subdomains (Figures 9 and 10) and reports
// the cost imbalance (max/mean).
func BenchmarkFig10Decouple(b *testing.B) {
	nb := geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(2, 1)}
	ff := geom.BBox{Min: geom.Pt(-30, -30), Max: geom.Pt(32, 30)}
	size := sizing.NewGraded([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0.05, 0.2, 3).Area
	var imbalance float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quads, err := decouple.InitialQuadrants(nb, ff, size)
		if err != nil {
			b.Fatal(err)
		}
		regions := decouple.Decouple(quads[:], size, 64)
		var sum, max float64
		for _, r := range regions {
			c := r.Cost(size)
			sum += c
			if c > max {
				max = c
			}
		}
		imbalance = max / (sum / float64(len(regions)))
	}
	b.ReportMetric(imbalance, "max/mean-cost")
}

// BenchmarkFig11StrongScaling runs the calibrated schedule simulation and
// reports the Figure 11 speedups at 128 and 256 ranks (paper: ~102 and
// ~180).
func BenchmarkFig11StrongScaling(b *testing.B) {
	pts := scalingPoints(b)
	var s128, s256 float64
	for _, p := range pts {
		switch p.Ranks {
		case 128:
			s128 = p.Speedup
		case 256:
			s256 = p.Speedup
		}
	}
	b.ReportMetric(s128, "speedup-128")
	b.ReportMetric(s256, "speedup-256")
}

// BenchmarkFig12Efficiency reports the Figure 12 efficiencies at 128 and
// 256 ranks (paper: ~80% and ~70%).
func BenchmarkFig12Efficiency(b *testing.B) {
	pts := scalingPoints(b)
	var e128, e256 float64
	for _, p := range pts {
		switch p.Ranks {
		case 128:
			e128 = p.Efficiency
		case 256:
			e256 = p.Efficiency
		}
	}
	b.ReportMetric(100*e128, "efficiency-128-pct")
	b.ReportMetric(100*e256, "efficiency-256-pct")
}

var (
	scalingOnce   sync.Once
	scalingCached []perfmodel.ScalePoint
	scalingErr    error
)

// scalingPoints calibrates the performance model with one real pipeline
// run (shared between the Figure 11 and 12 benchmarks so both report the
// same schedule) and simulates the strong-scaling study.
func scalingPoints(b *testing.B) []perfmodel.ScalePoint {
	b.Helper()
	scalingOnce.Do(func() { scalingCached, scalingErr = computeScaling() })
	if scalingErr != nil {
		b.Fatal(scalingErr)
	}
	return scalingCached
}

func computeScaling() ([]perfmodel.ScalePoint, error) {
	cfg := benchConfig()
	cfg.Geometry = airfoil.Single(airfoil.NACA0012, 64, 20)
	cfg.BL.Growth = growth.Geometric{H0: 5e-4, Ratio: 1.25}
	cfg.BL.MaxLayers = 25
	cfg.Ranks = 1
	cfg.SubdomainsPerRank = 4096
	cfg.SurfaceH0 = 0.008
	cfg.HMax = 0.16
	cfg.NearBodyMargin = 0.04
	cfg.TransitionSectors = 32
	res, err := core.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var tasks []perfmodel.Task
	for _, tm := range res.Stats.Tasks {
		tasks = append(tasks, perfmodel.Task{Cost: tm.Seconds, Bytes: tm.Bytes, BoundaryLayer: tm.BoundaryLayer})
	}
	seq := res.Stats.Times.Validate.Seconds() +
		perfmodel.DecompositionOverhead(res.Stats.BoundaryLayerPts, 256, 2e-8, perfmodel.FDRInfiniband())
	return perfmodel.StrongScaling(tasks, seq, perfmodel.FDRInfiniband(),
		[]int{1, 2, 4, 8, 16, 32, 64, 128, 256}), nil
}

// BenchmarkFig13IntersectionResolution measures the hierarchical self- and
// multi-element intersection resolution on the three-element configuration
// and reports the resolved counts (Figure 13).
func BenchmarkFig13IntersectionResolution(b *testing.B) {
	cfg := airfoil.ThreeElement(96)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	p := blayer.DefaultParams()
	p.Growth = growth.Geometric{H0: 5e-4, Ratio: 1.3}
	p.MaxLayers = 30
	var self, multi int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layers := blayer.Generate(g, p)
		self, multi = 0, 0
		for _, l := range layers {
			self += l.Stats.SelfIntersections
			multi += l.Stats.MultiIntersections
		}
	}
	b.ReportMetric(float64(self), "self-intersections")
	b.ReportMetric(float64(multi), "multi-intersections")
}

// BenchmarkFig16Convergence reproduces the convergence comparison: the
// anisotropic mesh needs fewer elements and fewer solver iterations than
// the isotropic mesh built from the same geometry and sizing (paper: 14.7x
// fewer elements, ~2x fewer iterations).
func BenchmarkFig16Convergence(b *testing.B) {
	cfg := benchConfig()
	aniso, err := core.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	iso, err := core.IsotropicBaseline(cfg, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cfg.Geometry.Graph()
	if err != nil {
		b.Fatal(err)
	}
	surf := sizing.NewGraded(g.Surfaces[0].Points, 1, 0, 0)
	bc := solver.AirfoilBC(func(p geom.Point) bool { return surf.Distance(p) < 0.08 })
	opt := solver.Options{Tol: 1e-10, MaxIters: 300000, Method: solver.GaussSeidel}

	var itAniso, itIso int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa, err := solver.Solve(solver.Problem{Mesh: aniso.Mesh, Diffusivity: 0.01, Velocity: geom.V(1, 0.1), Boundary: bc}, opt)
		if err != nil {
			b.Fatal(err)
		}
		si, err := solver.Solve(solver.Problem{Mesh: iso, Diffusivity: 0.01, Velocity: geom.V(1, 0.1), Boundary: bc}, opt)
		if err != nil {
			b.Fatal(err)
		}
		itAniso = sa.History.Iterations
		itIso = si.History.Iterations
	}
	b.ReportMetric(float64(itAniso), "aniso-iters")
	b.ReportMetric(float64(itIso), "iso-iters")
	b.ReportMetric(float64(iso.NumTriangles())/float64(aniso.Mesh.NumTriangles()), "element-ratio")
}

// BenchmarkSeqEfficiency compares the pipeline at one rank against the
// direct sequential baseline (the paper's 196 s vs Triangle's 192 s, a 98%
// sequential efficiency).
func BenchmarkSeqEfficiency(b *testing.B) {
	cfg := benchConfig()
	cfg.Ranks = 1
	b.Run("pipeline-1rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Generate(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("triangle-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SequentialBaseline(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkElementRatio reports the anisotropic/isotropic element-count
// comparison at matched near-wall resolution (the paper's 360,241 vs
// 5,314,372 triangles, a 14.7x reduction).
func BenchmarkElementRatio(b *testing.B) {
	cfg := benchConfig()
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aniso, err := core.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		iso, err := core.IsotropicBaseline(cfg, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(iso.NumTriangles()) / float64(aniso.Mesh.NumTriangles())
	}
	b.ReportMetric(ratio, "iso/aniso-elements")
}

// BenchmarkMeshWriters compares ASCII and binary mesh output (the paper's
// 9-minute ASCII write versus faster binary output).
func BenchmarkMeshWriters(b *testing.B) {
	cfg := benchConfig()
	res, err := core.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ascii", func(b *testing.B) {
		b.SetBytes(int64(res.Mesh.NumTriangles()))
		for i := 0; i < b.N; i++ {
			if err := res.Mesh.WriteASCII(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.SetBytes(int64(res.Mesh.NumTriangles()))
		for i := 0; i < b.N; i++ {
			if err := res.Mesh.WriteBinary(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benchmarks (DESIGN.md section 5) ---

// BenchmarkAblationPresorted isolates the paper's removed-sort
// optimization: the kernel consuming already-x-sorted subdomain vertices
// versus sorting on entry.
func BenchmarkAblationPresorted(b *testing.B) {
	cfg := airfoil.Single(airfoil.NACA0012, 256, 30)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	layers := blayer.Generate(g, blayer.DefaultParams())
	root := project.New(layers[0].AllPoints())
	leaves, _ := project.Decompose(root, project.Options{MinVerts: 400})
	var inputs [][]geom.Point
	for _, l := range leaves {
		inputs = append(inputs, l.Points())
	}
	b.Run("presorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pts := range inputs {
				if _, err := delaunay.Triangulate(delaunay.Input{Points: pts, Sorted: true}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sort-on-entry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pts := range inputs {
				if _, err := delaunay.Triangulate(delaunay.Input{Points: pts}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationADT compares the alternating-digital-tree extent-box
// pruning against brute-force all-pairs intersection checks over the same
// ray set (the paper's n log n versus n^2 claim). Both variants end with
// identical exact segment tests; only the pruning differs.
func BenchmarkAblationADT(b *testing.B) {
	// An L-shaped body producing many converging rays.
	var pts []geom.Point
	corners := []geom.Point{
		geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(2, 2), geom.Pt(2, 4), geom.Pt(0, 4),
	}
	for i := 0; i < len(corners); i++ {
		a, c := corners[i], corners[(i+1)%len(corners)]
		for k := 0; k < 256; k++ {
			pts = append(pts, a.Lerp(c, float64(k)/256))
		}
	}
	g := &pslg.Graph{Surfaces: []pslg.Loop{{Name: "L", Points: pts}}}
	p := blayer.DefaultParams()
	p.Growth = growth.Geometric{H0: 0.02, Ratio: 1.3}
	p.MaxLayers = 12
	layers := blayer.Generate(g, p)
	rays := layers[0].Rays
	segs := make([]geom.Segment, len(rays))
	full := p.Growth.Offset(p.MaxLayers - 1)
	for i := range rays {
		segs[i] = geom.Segment{A: rays[i].Origin, B: rays[i].Origin.Add(rays[i].Dir.Scale(full))}
	}
	b.Run("adt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			world := geom.EmptyBBox()
			for _, s := range segs {
				world = world.Union(s.BBox())
			}
			tree := adt.NewForBox(world)
			for j := range segs {
				tree.InsertBox(segs[j].BBox(), j)
			}
			count := 0
			for x := range segs {
				tree.VisitOverlapping(segs[x].BBox(), func(y int) bool {
					if y > x && geom.SegmentsIntersect(segs[x], segs[y]) == geom.SegCross {
						count++
					}
					return true
				})
			}
			_ = count
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count := 0
			for x := 0; x < len(segs); x++ {
				for y := x + 1; y < len(segs); y++ {
					if geom.SegmentsIntersect(segs[x], segs[y]) == geom.SegCross {
						count++
					}
				}
			}
			_ = count
		}
	})
}

// BenchmarkAblationSchedule compares the paper's largest-first priority
// scheduling against FIFO under the same work-stealing protocol, reporting
// the simulated makespans.
func BenchmarkAblationSchedule(b *testing.B) {
	cfg := benchConfig()
	cfg.Ranks = 1
	cfg.SubdomainsPerRank = 256
	res, err := core.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tasks []perfmodel.Task
	for _, tm := range res.Stats.Tasks {
		tasks = append(tasks, perfmodel.Task{Cost: tm.Seconds, Bytes: tm.Bytes, BoundaryLayer: tm.BoundaryLayer})
	}
	net := perfmodel.FDRInfiniband()
	var priority, fifo float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priority = perfmodel.SimulateOrder(tasks, 32, net, 0, true).Makespan
		fifo = perfmodel.SimulateOrder(tasks, 32, net, 0, false).Makespan
	}
	b.ReportMetric(priority*1000, "priority-ms")
	b.ReportMetric(fifo*1000, "fifo-ms")
}

// BenchmarkAblationCutAxis compares the shortest-bbox-edge cut rule
// against always-vertical cuts; skinny subdomains from always-vertical
// cuts are slower to triangulate.
func BenchmarkAblationCutAxis(b *testing.B) {
	cfg := airfoil.Single(airfoil.NACA0012, 512, 30)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	p := blayer.DefaultParams()
	pts := blayer.Generate(g, p)[0].AllPoints()
	run := func(b *testing.B, force bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			root := project.New(pts)
			b.StartTimer()
			leaves, _ := project.Decompose(root, project.Options{MinVerts: 2, MaxDepth: 9, ForceVertical: force})
			for _, l := range leaves {
				if l.Len() < 3 {
					continue
				}
				if _, err := delaunay.Triangulate(delaunay.Input{Points: l.Points(), Sorted: true}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("shortest-edge-rule", func(b *testing.B) { run(b, false) })
	b.Run("always-vertical", func(b *testing.B) { run(b, true) })
}

// BenchmarkPushButton measures the complete push-button pipeline at
// several rank counts (functional concurrency on this machine, not
// speedup — see BenchmarkFig11StrongScaling for the scaling study).
func BenchmarkPushButton(b *testing.B) {
	for _, ranks := range []int{1, 2, 4} {
		b.Run(rankName(ranks), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Ranks = ranks
			var tris int
			for i := 0; i < b.N; i++ {
				res, err := core.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tris = res.Stats.TotalTriangles
			}
			b.ReportMetric(float64(tris), "triangles")
		})
	}
}

func rankName(r int) string {
	return string(rune('0'+r)) + "-ranks"
}

// BenchmarkPushButtonTCP is the PushButton pipeline over a loopback TCP
// fabric: four SPMD processes (simulated as goroutines around real TCP
// connections) each run the full pipeline, with the distributed phases
// splitting work across the wire. Against BenchmarkPushButton/4-ranks
// this is the transport's full price — framing, typed codecs, and the
// root's result re-broadcast (cmd/benchreport records the same workload
// as PushButton/4-ranks-tcp).
func BenchmarkPushButtonTCP(b *testing.B) {
	const ranks = 4
	ctx := context.Background()
	clusters, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, cl := range clusters {
			cl.Close()
		}
	}()
	cfg := benchConfig()
	cfg.Ranks = ranks
	var tris int
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, ranks)
		results := make([]*core.Result, ranks)
		for p, cl := range clusters {
			wg.Add(1)
			go func(p int, cl *mpi.Cluster) {
				defer wg.Done()
				c := cfg
				c.Fabric = cl
				results[p], errs[p] = core.GenerateContext(ctx, c)
			}(p, cl)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		tris = results[0].Stats.TotalTriangles
	}
	b.ReportMetric(float64(tris), "triangles")
}

// BenchmarkPushButtonAdapt measures one metric-adaptation cycle of the
// cavity-operator engine on the PushButton mesh against the shared
// analytic boundary-layer metric (cmd/benchreport records the same
// workload as PushButton/1-ranks-adapt). Generation happens once outside
// the timer; Adapt does not mutate its input, so every iteration adapts
// the identical mesh.
func BenchmarkPushButtonAdapt(b *testing.B) {
	cfg := benchConfig()
	cfg.Ranks = 1
	res, err := core.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fn, err := metric.ParseSpec(benchcfg.AdaptMetric)
	if err != nil {
		b.Fatal(err)
	}
	f := metric.Analytic(res.Mesh, fn)
	var r *adapt.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, r, err = adapt.Adapt(res.Mesh, f, adapt.Options{Resample: fn})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.InBand, "in-band-pct")
	b.ReportMetric(float64(r.Sweeps), "sweeps")
}

// BenchmarkPushButtonAudited is the PushButton pipeline with the
// invariant-audit stage enabled, so the trajectory tracks verification
// overhead alongside the unaudited runs (cmd/benchreport records the same
// workload as PushButton/1-ranks-audit).
func BenchmarkPushButtonAudited(b *testing.B) {
	cfg := benchConfig()
	cfg.Ranks = 1
	cfg.Audit = true
	var tris int
	for i := 0; i < b.N; i++ {
		res, err := core.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tris = res.Stats.TotalTriangles
	}
	b.ReportMetric(float64(tris), "triangles")
}

// TestAuditedWorkloads is the audit acceptance gate: the PushButton and
// Figure 8 workloads must generate with zero audit violations at 1 and 4
// ranks, and on PushButton/1-rank the audit stage must cost less than 30%
// of total generation wall time.
func TestAuditedWorkloads(t *testing.T) {
	fig08 := core.DefaultConfig()
	fig08.Geometry = airfoil.Single(airfoil.NACA0012, 256, 30)
	fig08.BL = blayer.DefaultParams() // the Fig08Points boundary layer
	workloads := []struct {
		name string
		cfg  core.Config
	}{
		{"PushButton", benchConfig()},
		{"Fig08", fig08},
	}
	for _, w := range workloads {
		for _, ranks := range []int{1, 4} {
			if testing.Short() && (w.name == "Fig08" || ranks > 1) {
				continue
			}
			cfg := w.cfg
			cfg.Ranks = ranks
			cfg.Audit = true
			res, err := core.Generate(cfg)
			if err != nil {
				t.Fatalf("%s/%d ranks: audited run failed: %v", w.name, ranks, err)
			}
			if !res.Stats.Audit.Ok() {
				t.Fatalf("%s/%d ranks: violations: %v", w.name, ranks, res.Stats.Audit.Violations)
			}
			if w.name == "PushButton" && ranks == 1 {
				frac := float64(res.Stats.Times.Audit) / float64(res.Stats.Times.Total)
				if frac >= 0.30 {
					t.Errorf("audit overhead %.1f%% of total wall time, want < 30%%", 100*frac)
				}
				t.Logf("PushButton/1-rank audit overhead: %.1f%% (%v of %v)",
					100*frac, res.Stats.Times.Audit, res.Stats.Times.Total)
			}
		}
	}
}

// BenchmarkAblationPrefetch isolates the paper's two-thread design: the
// communicator requesting work before the mesher runs dry versus a
// single-threaded mesher that blocks for every transfer.
func BenchmarkAblationPrefetch(b *testing.B) {
	cfg := benchConfig()
	cfg.Ranks = 1
	cfg.SubdomainsPerRank = 256
	res, err := core.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tasks []perfmodel.Task
	for _, tm := range res.Stats.Tasks {
		tasks = append(tasks, perfmodel.Task{Cost: tm.Seconds, Bytes: tm.Bytes, BoundaryLayer: tm.BoundaryLayer})
	}
	// A slower interconnect makes the overlap visible at this scale.
	net := perfmodel.Network{Latency: 1e-4, Bandwidth: 1e8}
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = perfmodel.SimulatePolicy(tasks, 32, net, 0, perfmodel.Policy{LargestFirst: true, Prefetch: true}).Makespan
		without = perfmodel.SimulatePolicy(tasks, 32, net, 0, perfmodel.Policy{LargestFirst: true, Prefetch: false}).Makespan
	}
	b.ReportMetric(with*1000, "prefetch-ms")
	b.ReportMetric(without*1000, "blocking-ms")
}

// BenchmarkKernelComparison runs the pipeline with the Delaunay-refinement
// kernel (the paper's choice) and with the advancing-front baseline from
// its related work, reporting both meshing times and element counts.
func BenchmarkKernelComparison(b *testing.B) {
	for _, k := range []struct {
		name   string
		kernel core.Kernel
	}{
		{"ruppert", core.KernelRuppert},
		{"advancing-front", core.KernelAdvancingFront},
	} {
		b.Run(k.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.InviscidKernel = k.kernel
			var tris int
			for i := 0; i < b.N; i++ {
				res, err := core.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tris = res.Stats.InviscidTris
			}
			b.ReportMetric(float64(tris), "inviscid-triangles")
		})
	}
}

// BenchmarkWeakScaling reports the complementary weak-scaling study the
// paper leaves to future work: the workload grows with the rank count, so
// flat time (efficiency near 1) is ideal.
func BenchmarkWeakScaling(b *testing.B) {
	cfg := benchConfig()
	cfg.Ranks = 1
	cfg.SubdomainsPerRank = 64
	res, err := core.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var base []perfmodel.Task
	for _, tm := range res.Stats.Tasks {
		base = append(base, perfmodel.Task{Cost: tm.Seconds, Bytes: tm.Bytes, BoundaryLayer: tm.BoundaryLayer})
	}
	var e64 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := perfmodel.WeakScaling(base, 0.001, perfmodel.FDRInfiniband(), []int{1, 4, 16, 64})
		e64 = pts[len(pts)-1].Efficiency
	}
	b.ReportMetric(100*e64, "weak-efficiency-64-pct")
}
