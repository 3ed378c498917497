package audit

import (
	"testing"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// FuzzAuditDelaunay drives the audit engine from both sides: a freshly
// triangulated point cloud must always pass the strict structural +
// Delaunay audit, and a mesh corrupted by one of three guaranteed-invalid
// index mutations (orientation flip, repeated vertex, out-of-range index)
// must always be flagged, attributed to the mutated element. mut%3 picks
// the mutation.
func FuzzAuditDelaunay(f *testing.F) {
	f.Add([]byte{0, 0, 50, 0, 0, 50, 50, 50, 25, 10, 10, 40}, uint8(0), uint16(0))
	f.Add([]byte{0, 0, 90, 10, 40, 80, 10, 60, 70, 20, 30, 30, 60, 50}, uint8(1), uint16(1))
	f.Add([]byte{5, 5, 200, 5, 5, 200, 200, 200, 100, 100, 150, 42, 33, 180}, uint8(2), uint16(2))
	// A cloud with duplicate and tightly clustered points.
	f.Add([]byte{0, 0, 200, 0, 0, 200, 200, 200, 100, 100, 100, 100, 101, 100,
		100, 101, 101, 101, 30, 170, 170, 30, 90, 90, 110, 110, 50, 50}, uint8(193), uint16(4))

	f.Fuzz(func(t *testing.T, data []byte, mut uint8, pick uint16) {
		if len(data) < 6 || len(data) > 2048 {
			t.Skip()
		}
		pts := make([]geom.Point, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			pts = append(pts, geom.Pt(float64(data[i]), float64(data[i+1])))
		}
		res, err := delaunay.Triangulate(delaunay.Input{Points: pts})
		if err != nil {
			t.Skip() // degenerate input (e.g. all points coincident)
		}
		m := &mesh.Mesh{Points: res.Points, Triangles: res.Triangles}
		if m.NumTriangles() == 0 {
			t.Skip() // collinear cloud: nothing to audit or corrupt
		}
		// Non-strict mode: with no constrained paths the Delaunay audit still
		// covers every interior edge, while the boundary audit tolerates the
		// pinched hulls the kernel legitimately produces for degenerate
		// (collinear-subset) clouds by dropping hull slivers.
		checks := []Check{orientationCheck{}, conformityCheck{}, boundaryCheck{}, delaunayCheck{}}

		rep := Run(&Snapshot{Mesh: m}, checks)
		if !rep.Ok() {
			t.Fatalf("fresh Delaunay triangulation of %d points failed audit: %+v",
				len(pts), rep.Violations)
		}

		victim := int(pick) % m.NumTriangles()
		tri := &m.Triangles[victim]
		switch mut % 3 {
		case 0: // orientation flip
			tri[0], tri[1] = tri[1], tri[0]
		case 1: // repeated vertex (degenerate element)
			tri[1] = tri[0]
		case 2: // out-of-range index
			tri[2] = int32(len(m.Points)) + 3
		}
		rep = Run(&Snapshot{Mesh: m}, checks)
		if rep.Ok() {
			t.Fatalf("mutation %d of element %d not flagged", mut%3, victim)
		}
		attributed := false
		for _, v := range rep.Violations {
			if v.Check == "orientation" && v.Element == victim {
				attributed = true
				break
			}
		}
		if !attributed {
			t.Fatalf("mutation %d flagged but not attributed to element %d: %+v",
				mut%3, victim, rep.Violations)
		}
	})
}
