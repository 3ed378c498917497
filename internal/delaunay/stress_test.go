package delaunay

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pamg2d/internal/geom"
)

// Stress and adversarial inputs for the kernel beyond the basic unit
// tests: massive cocircularity, tight clusters, duplicate floods, spiral
// and lattice patterns, crossing constraints, and refinement on domains
// with small input angles.

func TestCocircularRing(t *testing.T) {
	// Many points on one circle: every quadruple is cocircular, the
	// hardest case for incircle-based insertion.
	for _, n := range []int{8, 64, 257} {
		var pts []geom.Point
		for i := 0; i < n; i++ {
			th := 2 * math.Pi * float64(i) / float64(n)
			pts = append(pts, geom.Pt(math.Cos(th), math.Sin(th)))
		}
		tr := buildPlain(t, pts)
		if err := tr.CheckDelaunay(false); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// The triangulation of a convex polygon has n-2 interior triangles.
		tr.Carve(nil)
		if got, want := tr.InteriorTriangles(), n-2; got != want {
			t.Errorf("n=%d: %d interior triangles, want %d", n, got, want)
		}
	}
}

func TestConcentricRings(t *testing.T) {
	var pts []geom.Point
	for ring := 1; ring <= 5; ring++ {
		r := float64(ring)
		for i := 0; i < 40; i++ {
			th := 2 * math.Pi * float64(i) / 40
			pts = append(pts, geom.Pt(r*math.Cos(th), r*math.Sin(th)))
		}
	}
	tr := buildPlain(t, pts)
	if err := tr.CheckDelaunay(true); err != nil {
		t.Fatal(err)
	}
}

func TestTightCluster(t *testing.T) {
	// Points packed within a few ulps of each other plus far outliers.
	base := geom.Pt(1, 1)
	pts := []geom.Point{geom.Pt(-100, -100), geom.Pt(100, -100), geom.Pt(0, 100)}
	x, y := base.X, base.Y
	for i := 0; i < 30; i++ {
		x = math.Nextafter(x, 2)
		y = math.Nextafter(y, 2)
		pts = append(pts, geom.Pt(x, base.Y), geom.Pt(base.X, y), geom.Pt(x, y))
	}
	tr := buildPlain(t, pts)
	if err := tr.CheckDelaunay(false); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateFlood(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var pts []geom.Point
	for i := 0; i < 50; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		for k := 0; k < 5; k++ {
			pts = append(pts, p) // every point five times
		}
	}
	tr := New(geom.BBoxOf(pts))
	dups := 0
	for _, p := range pts {
		if _, err := tr.InsertPoint(p); err == ErrDuplicate {
			dups++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if dups != 200 {
		t.Errorf("duplicates rejected = %d, want 200", dups)
	}
	if err := tr.CheckDelaunay(true); err != nil {
		t.Fatal(err)
	}
}

func TestSpiral(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 400; i++ {
		th := 0.15 * float64(i)
		r := 0.05 * th
		pts = append(pts, geom.Pt(r*math.Cos(th), r*math.Sin(th)))
	}
	tr := buildPlain(t, pts)
	if err := tr.CheckDelaunay(true); err != nil {
		t.Fatal(err)
	}
}

func TestAxisLattice(t *testing.T) {
	// Points on a cross of the two axes (extreme collinear runs).
	var pts []geom.Point
	for i := -30; i <= 30; i++ {
		pts = append(pts, geom.Pt(float64(i), 0), geom.Pt(0, float64(i)))
	}
	tr := buildPlain(t, pts)
	if err := tr.CheckDelaunay(true); err != nil {
		t.Fatal(err)
	}
}

func TestCrossingConstraintsRejected(t *testing.T) {
	// Through the high-level API: a bowtie's crossing diagonals.
	in := Input{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(2, 0), geom.Pt(0, 2),
		},
		Segments: [][2]int32{{0, 1}, {2, 3}},
	}
	if _, err := Triangulate(in); err == nil {
		t.Fatal("crossing constrained segments must be rejected")
	}
}

func TestSegmentChainThroughCollinearPoints(t *testing.T) {
	// A constraint passing exactly through intermediate vertices must be
	// split at each of them and remain recoverable.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0)}
	for i := 1; i < 4; i++ {
		pts = append(pts, geom.Pt(float64(i), 0))
	}
	// Add off-axis points so the line is embedded in a real triangulation.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		pts = append(pts, geom.Pt(rng.Float64()*4, rng.Float64()*2-1))
	}
	tr := New(geom.BBoxOf(pts))
	ids := make([]int32, len(pts))
	for i, p := range pts {
		v, err := tr.InsertPoint(p)
		if err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
		ids[i] = v
	}
	if err := tr.InsertSegment(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if !constrainedPathExists(tr, ids[0], ids[1]) {
		t.Fatal("collinear chain must carry the constraint")
	}
	if err := tr.CheckDelaunay(false); err != nil {
		t.Fatal(err)
	}
}

func TestManySegmentsStar(t *testing.T) {
	// Constraints radiating from one hub vertex.
	pts := []geom.Point{geom.Pt(0, 0)}
	n := 24
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / float64(n)
		pts = append(pts, geom.Pt(2*math.Cos(th), 2*math.Sin(th)))
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		th := rng.Float64() * 2 * math.Pi
		r := rng.Float64() * 1.9
		pts = append(pts, geom.Pt(r*math.Cos(th), r*math.Sin(th)))
	}
	tr := New(geom.BBoxOf(pts))
	ids := make([]int32, len(pts))
	for i, p := range pts {
		v, err := tr.InsertPoint(p)
		if err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
		ids[i] = v
	}
	for i := 1; i <= n; i++ {
		if err := tr.InsertSegment(ids[0], ids[i]); err != nil {
			t.Fatalf("spoke %d: %v", i, err)
		}
	}
	if err := tr.CheckDelaunay(false); err != nil {
		t.Fatal(err)
	}
}

func TestRefineSmallInputAngle(t *testing.T) {
	// A needle-thin wedge: Ruppert cannot fix the input angle itself but
	// must terminate and keep the rest of the domain clean.
	in := Input{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(10, 0.2), geom.Pt(10, -0.2),
		},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 0}},
	}
	res, err := TriangulateRefined(in, Quality{
		MaxRadiusEdgeRatio: math.Sqrt2,
		MaxArea:            0.5,
		MaxPoints:          20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if len(res.Triangles) < 20 {
		t.Errorf("refinement produced only %d triangles", len(res.Triangles))
	}
}

func TestNoSplitSegmentsKeepsBoundary(t *testing.T) {
	in := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(6, 0), geom.Pt(6, 6), geom.Pt(0, 6)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	res, err := TriangulateRefined(in, Quality{
		MaxRadiusEdgeRatio: math.Sqrt2,
		MaxArea:            0.4,
		NoSplitSegments:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every result point on the square's boundary must be an input corner.
	for _, p := range res.Points {
		onBoundary := p.X == 0 || p.X == 6 || p.Y == 0 || p.Y == 6
		if onBoundary {
			isCorner := (p.X == 0 || p.X == 6) && (p.Y == 0 || p.Y == 6)
			if !isCorner {
				t.Fatalf("Steiner point %v on the boundary despite NoSplitSegments", p)
			}
		}
	}
	// Interior must still satisfy the area bound broadly.
	oversize := 0
	for _, tri := range res.Triangles {
		a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
		if math.Abs(geom.TriangleArea(a, b, c)) > 0.4+1e-9 {
			oversize++
		}
	}
	// Boundary-adjacent triangles may exceed the bound (their fixes were
	// vetoed); they must be a small minority.
	if oversize > len(res.Triangles)/3 {
		t.Errorf("%d of %d triangles oversize with NoSplitSegments", oversize, len(res.Triangles))
	}
}

func TestMaxAreaEnforcedInInterior(t *testing.T) {
	in := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(8, 8), geom.Pt(0, 8)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	res, err := TriangulateRefined(in, Quality{MaxArea: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for i, tri := range res.Triangles {
		a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
		if area := math.Abs(geom.TriangleArea(a, b, c)); area > 0.3+1e-9 {
			t.Fatalf("triangle %d area %v exceeds MaxArea", i, area)
		}
	}
}

func TestLargeRandomCDT(t *testing.T) {
	if testing.Short() {
		t.Skip("large case")
	}
	rng := rand.New(rand.NewSource(77))
	n := 20000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	res, err := Triangulate(Input{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	// Euler: for a triangulation of the convex hull, T = 2n - 2 - h where
	// h is the hull size. Verify within the identity (duplicates are
	// impossible at this density; hull size from the result boundary).
	if len(res.Triangles) < 2*n-2-1000 || len(res.Triangles) > 2*n {
		t.Errorf("triangle count %d violates the Euler envelope for %d points", len(res.Triangles), n)
	}
}

// Property: random star-shaped polygons (radial polygons are always
// simple) triangulate with exact area conservation and full boundary
// recovery.
func TestRandomPolygonProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%30 + 4
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		var area2 float64
		for i := range pts {
			th := 2 * math.Pi * float64(i) / float64(n)
			r := 0.5 + rng.Float64()*2
			pts[i] = geom.Pt(r*math.Cos(th), r*math.Sin(th))
		}
		for i := range pts {
			p, q := pts[i], pts[(i+1)%n]
			area2 += p.X*q.Y - q.X*p.Y
		}
		segs := make([][2]int32, n)
		for i := range segs {
			segs[i] = [2]int32{int32(i), int32((i + 1) % n)}
		}
		res, err := Triangulate(Input{Points: pts, Segments: segs})
		if err != nil {
			return false
		}
		var got float64
		for _, tri := range res.Triangles {
			got += math.Abs(geom.TriangleArea(res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]))
		}
		if math.Abs(got-area2/2) > 1e-9*math.Abs(area2/2) {
			return false
		}
		// All boundary segments recovered: count constrained edge flags.
		constrained := 0
		for i := range res.Triangles {
			for e := 0; e < 3; e++ {
				if res.Constrained[i][e] {
					constrained++
				}
			}
		}
		return constrained == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentBuildsIndependent runs the same triangulations on many
// goroutines at once, the way in-process ranks run their meshing tasks,
// and demands every result equal the solo one: the kernel keeps no
// shared mutable state outside a Triangulation. Under -race this is the
// kernel's data-race gate.
func TestConcurrentBuildsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cloud := make([]geom.Point, 2000)
	for i := range cloud {
		cloud[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	square := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4), geom.Pt(1.5, 1.5), geom.Pt(2.5, 1.5), geom.Pt(2, 2.5)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 4}},
		Holes:    []geom.Point{geom.Pt(2, 1.8)},
	}
	q := Quality{MaxRadiusEdgeRatio: math.Sqrt2, MaxArea: 0.02}
	build := func() (*Result, *Result, error) {
		a, err := Triangulate(Input{Points: cloud})
		if err != nil {
			return nil, nil, err
		}
		b, err := TriangulateRefined(square, q)
		return a, b, err
	}
	wantA, wantB, err := build()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			a, b, err := build()
			switch {
			case err != nil:
				errs <- err
			case !reflect.DeepEqual(a, wantA):
				errs <- fmt.Errorf("concurrent point-cloud build differs from the solo build")
			case !reflect.DeepEqual(b, wantB):
				errs <- fmt.Errorf("concurrent refined build differs from the solo build")
			default:
				errs <- nil
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
