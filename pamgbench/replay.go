package main

import (
	"runtime"
	"sync"

	"pamg2d/internal/audit"
	"pamg2d/internal/blayer"
	"pamg2d/internal/core"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/project"
	"pamg2d/internal/pslg"
	"pamg2d/internal/sizing"
)

// The traced replay: after a traced Engine.Run, the same input goes
// through the layer packages' exported functions one layer at a time, each
// call inside a benchmark-side span. The replay mirrors the pipeline's
// default decomposition (four subdomains per rank, 16-point leaves, a
// near-body box a quarter of the boundary-layer box's size beyond it) and
// runs the per-leaf and per-region calls on one goroutine per rank, like
// the distributed stages. Transition meshing and the root merge are not
// exported layer calls; they stay in core.glue_s.

const (
	subdomainsPerRank = 4
	leafMinVerts      = 16
	nearBodyMargin    = 0.25
)

// replayPipeline replays cfg under span parent of op and adds the layer
// values to v. out is the mesh the traced run produced (nil when it
// failed); the audit layer is replayed on it.
func replayPipeline(rec *recorder, parent, op int, cfg core.Config, out *mesh.Mesh, v layerValues) {
	var graph *pslg.Graph
	var err error
	v.add("pslg.graph_s", rec.time("pslg.graph", parent, op, func() { graph, err = cfg.Geometry.Graph() }))
	if err != nil {
		return
	}
	ff := graph.Farfield.BBox()

	var layers []*blayer.Layer
	v.add("blayer.rays_s", rec.time("blayer.rays", parent, op, func() { layers = blayer.GenerateRays(graph, cfg.BL) }))
	var blPts []geom.Point
	v.add("blayer.insert_s", rec.time("blayer.insert", parent, op, func() {
		for _, l := range layers {
			counts := blayer.PlanCounts(l, cfg.BL)
			pts := make([][]geom.Point, len(l.Rays))
			for i := range l.Rays {
				pts[i] = blayer.InsertRay(&l.Rays[i], cfg.BL, counts[i])
			}
			l.SetPoints(pts)
			blPts = append(blPts, l.AllPoints()...)
		}
	}))
	fan := 0
	for _, l := range layers {
		fan += l.Stats.FanRays
	}
	v.add("blayer.points", float64(len(blPts)))
	v.add("blayer.fan_rays", float64(fan))

	var leaves []*project.Subdomain
	v.add("project.decompose_s", rec.time("project.decompose", parent, op, func() {
		depth := 1
		for 1<<depth < ranks*subdomainsPerRank {
			depth++
		}
		leaves, _ = project.Decompose(project.New(blPts), project.Options{MinVerts: leafMinVerts, MaxDepth: depth})
	}))
	v.add("project.leaves", float64(len(leaves)))

	blTris, blBusy, blWall := onRanks(rec, "delaunay.bl", parent, op, len(leaves), func(i int) int {
		leaf := leaves[i]
		if leaf.Len() < 3 {
			return 0
		}
		res, err := delaunay.Triangulate(delaunay.Input{Points: leaf.Points(), Sorted: true, Frame: ff})
		if err != nil {
			return 0
		}
		return res.NumTriangles()
	})
	v.add("delaunay.bl_s", blBusy)
	v.add("delaunay.bl_tris", float64(blTris))
	v.add("stage.bl_wall_s", blWall)

	var surface []geom.Point
	for i := range graph.Surfaces {
		surface = append(surface, graph.Surfaces[i].Points...)
	}
	var size sizing.Func
	v.add("sizing.graded_s", rec.time("sizing.graded", parent, op, func() {
		size = sizing.NewGraded(surface, cfg.SurfaceH0, cfg.Gradation, cfg.HMax).Area
	}))
	var regions []*decouple.Region
	v.add("decouple.split_s", rec.time("decouple.split", parent, op, func() {
		bl := geom.BBoxOf(blPts)
		nb := bl.Inflate(nearBodyMargin * (bl.Width() + bl.Height()) / 2)
		quads, err := decouple.InitialQuadrants(nb, ff, size)
		if err != nil {
			return
		}
		regions = decouple.Decouple(quads[:], size, ranks*subdomainsPerRank)
	}))
	v.add("decouple.regions", float64(len(regions)))
	if len(regions) > 0 {
		maxC, sum := 0.0, 0.0
		for _, r := range regions {
			c := r.Cost(size)
			sum += c
			maxC = max(maxC, c)
		}
		v.add("decouple.imbalance", maxC/(sum/float64(len(regions))))
	}

	refTris, refBusy, refWall := onRanks(rec, "delaunay.refine", parent, op, len(regions), func(i int) int {
		res, err := regions[i].Refine(size, ff)
		if err != nil {
			return 0
		}
		return res.NumTriangles()
	})
	v.add("delaunay.refine_s", refBusy)
	v.add("delaunay.refine_tris", float64(refTris))
	v.add("stage.refine_wall_s", refWall)

	if out == nil {
		return
	}
	var rep *audit.Report
	v.add("audit.run_s", rec.time("audit.run", parent, op, func() {
		rep = audit.Run(&audit.Snapshot{Mesh: out, Layers: layers, BL: cfg.BL, Farfield: ff}, audit.All())
	}))
	elems := 0
	for _, c := range rep.Checks {
		elems += c.Elements
	}
	v.add("audit.elements", float64(elems))
}

// onRanks runs n independent calls on one goroutine per rank, as the
// distributed stages do, inside a stage span with one child span per call.
// It returns the summed result of fn, the summed busy time of the calls and
// the stage wall.
func onRanks(rec *recorder, name string, parent, op, n int, fn func(i int) int) (total int, busy, wall float64) {
	stage := rec.begin(name, parent, op)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	for r := 0; r < min(ranks, runtime.GOMAXPROCS(0)); r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				id := rec.begin(name+".task", stage, op)
				got := fn(i)
				d := rec.end(id)
				mu.Lock()
				total += got
				busy += d
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return total, busy, rec.end(stage)
}
