package delaunay

import (
	"fmt"
	"slices"

	"pamg2d/internal/geom"
)

// Input is a planar straight-line graph handed to the kernel: points, the
// constrained segments between them (as point-index pairs), and hole seed
// points. It mirrors Triangle's .poly input.
type Input struct {
	Points   []geom.Point
	Segments [][2]int32
	Holes    []geom.Point

	// Sorted declares that Points are already sorted by (X, Y). The paper
	// maintains x-sorted vertices through every decomposition step exactly
	// so the kernel can skip this sort.
	Sorted bool

	// Frame, when non-empty, fixes the working bounding box. Parallel
	// decompositions pass the same global frame to every subdomain so that
	// convex-hull slivers survive or die identically in every leaf and in
	// a direct triangulation of the union.
	Frame geom.BBox
}

// Result is a finished mesh: the vertex coordinates and the interior
// triangles as index triples in counter-clockwise order. Vertex indices
// refer to Points, which lists vertices in first-encountered order and
// contains only vertices referenced by interior triangles.
type Result struct {
	Points    []geom.Point
	Triangles [][3]int32
	// Constrained marks, for each triangle edge (triangle i, edge j from
	// vertex j to j+1 mod 3), whether it lies on a constrained segment.
	Constrained [][3]bool
}

// NumTriangles returns the number of triangles in the result.
func (r *Result) NumTriangles() int { return len(r.Triangles) }

// Quality options for Refine.
type Quality struct {
	// MaxRadiusEdgeRatio bounds the circumradius-to-shortest-edge ratio;
	// sqrt(2) corresponds to Ruppert's 20.7 degree minimum angle. Zero
	// disables the quality bound.
	MaxRadiusEdgeRatio float64

	// MaxArea bounds every triangle's area. Zero disables it.
	MaxArea float64

	// SizeAt, when non-nil, returns the target triangle area near a point;
	// triangles larger than the target are split. This is Triangle's
	// user-defined area constraint used by the paper's sizing function.
	SizeAt func(geom.Point) float64

	// MinLength guards termination: segments and edges shorter than this
	// are never split and circumcenters closer than this to an existing
	// vertex are rejected. When zero a value derived from the domain size
	// is used.
	MinLength float64

	// MaxPoints caps the total vertex count as a safety valve. Zero means
	// no cap.
	MaxPoints int

	// NoSplitSegments prohibits inserting Steiner points on constrained
	// segments (Triangle's -Y switch). Circumcenters that would encroach a
	// segment are simply rejected and the offending triangle is left in
	// place. The graded decoupling method relies on this: shared borders
	// between subdomains must keep exactly their initial discretization so
	// independently refined neighbors stay conforming.
	NoSplitSegments bool
}

// Triangulate builds the constrained Delaunay triangulation of the input,
// carves holes and exterior area, and returns the mesh without refinement.
func Triangulate(in Input) (*Result, error) {
	tr, err := Build(in)
	if err != nil {
		return nil, err
	}
	return tr.Extract(), nil
}

// TriangulateRefined builds the constrained Delaunay triangulation and
// refines it to the given quality.
func TriangulateRefined(in Input, q Quality) (*Result, error) {
	tr, err := Build(in)
	if err != nil {
		return nil, err
	}
	if err := tr.Refine(q); err != nil {
		return nil, err
	}
	return tr.Extract(), nil
}

// Build runs point insertion, segment recovery and carving, returning the
// live Triangulation for callers that need incremental access.
func Build(in Input) (*Triangulation, error) {
	if len(in.Points) < 3 {
		return nil, fmt.Errorf("delaunay: need at least 3 points, have %d", len(in.Points))
	}
	bb := in.Frame
	if bb == (geom.BBox{}) || bb.Empty() {
		bb = geom.BBoxOf(in.Points)
	}
	t := NewCap(bb, len(in.Points))

	// Insert points in spatially coherent order: either the caller's
	// x-sorted order, or sorted by insertionOrder (which also enables the
	// bin seed for the scattered queries that follow).
	order := insertionOrder(in, t)
	// vmap maps input point indices to triangulation vertex indices
	// (offset by the four frame corners, or aliased for duplicates).
	vmap := make([]int32, len(in.Points))
	for _, i := range order {
		v, err := t.InsertPoint(in.Points[i])
		if err == ErrDuplicate {
			vmap[i] = v
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("delaunay: inserting point %d %v: %w", i, in.Points[i], err)
		}
		vmap[i] = v
	}
	for _, s := range in.Segments {
		a, b := vmap[s[0]], vmap[s[1]]
		if a == b {
			continue
		}
		if err := t.InsertSegment(a, b); err != nil {
			return nil, err
		}
	}
	t.Carve(in.Holes)
	return t, nil
}

// Extract converts the live triangulation into a compact Result holding
// only interior triangles and referenced vertices.
func (t *Triangulation) Extract() *Result {
	remap := make([]int32, len(t.pts))
	for i := range remap {
		remap[i] = -1
	}
	nInterior := t.InteriorTriangles()
	res := &Result{
		Points:      make([]geom.Point, 0, len(t.pts)),
		Triangles:   make([][3]int32, 0, nInterior),
		Constrained: make([][3]bool, 0, nInterior),
	}
	for i := range t.tris {
		tr := t.tris[i]
		if tr.Dead || tr.Outside {
			continue
		}
		var tri [3]int32
		for k := 0; k < 3; k++ {
			v := tr.V[k]
			if remap[v] < 0 {
				remap[v] = int32(len(res.Points))
				res.Points = append(res.Points, t.pts[v])
			}
			tri[k] = remap[v]
		}
		res.Triangles = append(res.Triangles, tri)
		res.Constrained = append(res.Constrained, tr.C)
	}
	return res
}

// CheckDelaunay validates structural invariants; exposed for tests.
func (t *Triangulation) CheckDelaunay(full bool) error { return t.checkInvariants(full) }

// insertionOrder computes the bulk-insertion order of Build: the caller's
// x-sorted order, or a sort here. Sorted insertion makes the
// walk-from-last point location near O(1) per insert; without
// caller-provided spatial coherence, refinement and segment recovery issue
// scattered locate queries, so the bin seed is enabled to bound those
// walks (BRIO-style) without perturbing the deterministic insertion order.
func insertionOrder(in Input, t *Triangulation) []int32 {
	order := make([]int32, len(in.Points))
	for i := range order {
		order[i] = int32(i)
	}
	if !in.Sorted {
		pts := in.Points
		slices.SortFunc(order, func(i, j int32) int {
			a, b := pts[i], pts[j]
			switch {
			case a.X < b.X:
				return -1
			case a.X > b.X:
				return 1
			case a.Y < b.Y:
				return -1
			case a.Y > b.Y:
				return 1
			}
			return 0
		})
		t.EnableBinSeeding(geom.BBoxOf(in.Points), len(in.Points))
	}
	return order
}
