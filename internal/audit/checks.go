package audit

// Topological checks: consistent CCW orientation with exact predicates,
// 2-manifold edge incidence and duplicate/orphan detection, and watertight
// boundary recovery against the generation-time surfaces.

import (
	"pamg2d/internal/geom"
)

// orientationCheck verifies every triangle references in-range, distinct
// vertices and is strictly counter-clockwise under the exact orientation
// predicate. Degenerate (collinear) and inverted (clockwise) elements are
// reported separately so a flipped triangle is distinguishable from a
// collapsed one.
type orientationCheck struct{}

func (orientationCheck) Name() string                { return "orientation" }
func (orientationCheck) Applicable(s *Snapshot) bool { return true }
func (orientationCheck) Local() bool                 { return true }

func (orientationCheck) Run(s *Snapshot, from, to int, rep *Reporter) {
	m := s.Mesh
	for i := from; i < to; i++ {
		t := m.Triangles[i]
		if !indicesValid(m, t) {
			rep.Reportf(i, "vertex index out of range: (%d,%d,%d) with %d points", t[0], t[1], t[2], len(m.Points))
			continue
		}
		if t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
			rep.Reportf(i, "repeated vertex index: (%d,%d,%d)", t[0], t[1], t[2])
			continue
		}
		switch sign := geom.Orient2DSign(m.Points[t[0]], m.Points[t[1]], m.Points[t[2]]); {
		case sign < 0:
			rep.Reportf(i, "clockwise (inverted) triangle (%d,%d,%d)", t[0], t[1], t[2])
		case sign == 0:
			rep.Reportf(i, "degenerate (collinear) triangle (%d,%d,%d)", t[0], t[1], t[2])
		}
	}
}

// conformityCheck verifies the mesh is a 2-manifold simplicial complex over
// its indexed vertices: every directed edge used at most once (no
// overlapping elements), every undirected edge shared by at most two
// triangles, no duplicate elements, no duplicate point coordinates, and no
// orphan points unreferenced by any triangle.
type conformityCheck struct{}

func (conformityCheck) Name() string                { return "conformity" }
func (conformityCheck) Applicable(s *Snapshot) bool { return true }
func (conformityCheck) Local() bool                 { return false }

func (conformityCheck) Run(s *Snapshot, _, _ int, rep *Reporter) {
	m := s.Mesh
	type dedge struct{ a, b int32 }
	dir := make(map[dedge]int32, 3*len(m.Triangles))
	seen := make(map[[3]int32]int32, len(m.Triangles))
	used := make([]bool, len(m.Points))
	for i, t := range m.Triangles {
		if !indicesValid(m, t) || t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
			continue // orientation's finding; skip to keep maps well-formed
		}
		key := canonicalTri(t)
		if prev, ok := seen[key]; ok {
			rep.Reportf(i, "duplicate of triangle %d", prev)
			continue
		}
		seen[key] = int32(i)
		for e := 0; e < 3; e++ {
			u, v := t[e], t[(e+1)%3]
			used[u] = true
			if prev, ok := dir[dedge{u, v}]; ok {
				rep.Reportf(i, "directed edge (%d,%d) already used by triangle %d: overlapping elements", u, v, prev)
				continue
			}
			dir[dedge{u, v}] = int32(i)
		}
	}
	// Three or more triangles on one undirected index edge can only happen
	// via a repeated directed edge (caught above); the coordinate-keyed
	// incidence map additionally catches the same failure between distinct
	// index pairs that alias the same coordinates.
	for e, n := range s.edgeUse {
		if n > 2 {
			rep.Reportf(-1, "edge %v-%v shared by %d triangles", e.a, e.b, n)
		}
	}
	dupPts := make(map[geom.Point]int32, len(m.Points))
	for i, p := range m.Points {
		if prev, ok := dupPts[p]; ok {
			rep.Reportf(-1, "point %d duplicates point %d at %v", i, prev, p)
			continue
		}
		dupPts[p] = int32(i)
	}
	for i, u := range used {
		if !u {
			rep.Reportf(-1, "orphan point %d at %v referenced by no triangle", i, m.Points[i])
		}
	}
}

func canonicalTri(t [3]int32) [3]int32 {
	a, b, c := t[0], t[1], t[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]int32{a, b, c}
}

// boundaryCheck verifies the mesh boundary is watertight: the directed
// boundary edges decompose into disjoint simple cycles (every boundary
// vertex has exactly one incoming and one outgoing boundary edge). When the
// snapshot carries the generation-time boundary layers, it additionally
// verifies boundary recovery against the input surfaces: every refined
// surface vertex is present in the mesh and every surface segment appears
// verbatim as a mesh boundary edge — the surfaces are holes of the final
// mesh, so losing a segment means a leak into the body. In StrictDelaunay
// mode the boundary must be a single loop (an unconstrained Delaunay
// triangulation's boundary is its point set's convex hull), which catches
// deleted elements that tear an interior hole.
type boundaryCheck struct{}

func (boundaryCheck) Name() string                { return "boundary" }
func (boundaryCheck) Applicable(s *Snapshot) bool { return true }
func (boundaryCheck) Local() bool                 { return false }

func (boundaryCheck) Run(s *Snapshot, _, _ int, rep *Reporter) {
	// In/out degree over the directed boundary edges. Any conforming
	// oriented triangle complex has in == out at every boundary vertex
	// (each triangle fan incident to the vertex contributes one incoming
	// and one outgoing boundary edge); a mismatch means the boundary is
	// torn. Degree above 1 is a pinch — two fans meeting at a point — which
	// valid kernel output can produce for degenerate inputs (dropped
	// convex-hull slivers), so it is only an error in strict mode.
	out := make(map[int32][]int32, len(s.boundary)) // vertex -> successors
	inN := make(map[int32]int, len(s.boundary))
	for _, e := range s.boundary {
		out[e[0]] = append(out[e[0]], e[1])
		inN[e[1]]++
	}
	for v, succ := range out {
		if len(succ) != inN[v] {
			rep.Reportf(int(s.boundaryT[[2]int32{v, succ[0]}]),
				"boundary vertex %d has %d outgoing / %d incoming boundary edges", v, len(succ), inN[v])
		}
		if s.StrictDelaunay && len(succ) > 1 {
			rep.Reportf(-1, "boundary vertex %d pinched: %d boundary fans, want a simple hull loop", v, len(succ))
		}
	}
	for v, n := range inN {
		if len(out[v]) == 0 {
			rep.Reportf(-1, "boundary vertex %d has %d incoming boundary edges but no outgoing one", v, n)
		}
	}
	// Count the closed walks by consuming successor links (pairing at a
	// pinched vertex is arbitrary but the walk count is what matters).
	loops := 0
	for _, e := range s.boundary {
		v := e[0]
		if len(out[v]) == 0 {
			continue
		}
		loops++
		for steps := 0; len(out[v]) > 0 && steps <= len(s.boundary); steps++ {
			next := out[v][len(out[v])-1]
			out[v] = out[v][:len(out[v])-1]
			v = next
		}
	}
	if s.StrictDelaunay && loops != 1 {
		rep.Reportf(-1, "boundary splits into %d loops, want a single convex hull loop", loops)
	}
	// Watertight surface recovery: every refined surface vertex present,
	// every surface segment a boundary edge of the mesh.
	if len(s.Layers) == 0 {
		return
	}
	bset := make(map[[2]int32]bool, len(s.boundary))
	for _, e := range s.boundary {
		bset[e] = true
	}
	for li, l := range s.Layers {
		pts := l.Surface.Points
		n := len(pts)
		for i := 0; i < n; i++ {
			a, b := pts[i], pts[(i+1)%n]
			ai, aok := s.pointIdx[a]
			bi, bok := s.pointIdx[b]
			if !aok {
				rep.Reportf(-1, "surface %d vertex %d at %v missing from mesh", li, i, a)
				continue
			}
			if !bok {
				continue // reported when its own segment is visited
			}
			// Surfaces are CW holes in the final mesh, so the boundary edge
			// runs opposite the CCW surface loop; accept either direction.
			if !bset[[2]int32{ai, bi}] && !bset[[2]int32{bi, ai}] {
				if uses := s.edgeUse[edgeOf(a, b)]; uses > 0 {
					rep.Reportf(-1, "surface %d segment %d (%v-%v) is an interior edge (%d triangles), not a boundary edge",
						li, i, a, b, uses)
				} else {
					rep.Reportf(-1, "surface %d segment %d (%v-%v) not recovered as a mesh boundary edge",
						li, i, a, b)
				}
			}
		}
	}
}
