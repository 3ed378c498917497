package metric

import (
	"math"
	"math/rand"
	"testing"

	"pamg2d/internal/geom"
)

func near(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

func TestIsoLength(t *testing.T) {
	m := Iso(0.25)
	// An edge of Euclidean length 0.25 has metric length 1.
	near(t, m.Len(geom.V(0.25, 0)), 1, 1e-12, "Len")
	near(t, m.Len(geom.V(0, 0.5)), 2, 1e-12, "Len")
	l1, l2, _ := m.Eigen()
	near(t, l1, 16, 1e-9, "l1")
	near(t, l2, 16, 1e-9, "l2")
}

func TestFromEigenRoundTrip(t *testing.T) {
	dir := geom.V(3, 4).Unit()
	m := FromEigen(100, 4, dir)
	l1, l2, v1 := m.Eigen()
	near(t, l1, 100, 1e-9, "l1")
	near(t, l2, 4, 1e-9, "l2")
	if c := math.Abs(v1.Dot(dir)); math.Abs(c-1) > 1e-9 {
		t.Fatalf("eigenvector %v not parallel to %v (|cos| = %g)", v1, dir, c)
	}
	// Unit spacing along dir is 1/sqrt(100) = 0.1.
	near(t, m.Len(dir.Scale(0.1)), 1, 1e-9, "Len along dir")
	near(t, m.Aspect(), 5, 1e-9, "Aspect")
}

func TestLogExpInverse(t *testing.T) {
	m := FromEigen(50, 2, geom.V(1, 2).Unit())
	r := m.Log().Exp()
	near(t, r.XX, m.XX, 1e-9, "XX")
	near(t, r.XY, m.XY, 1e-9, "XY")
	near(t, r.YY, m.YY, 1e-9, "YY")
}

func TestClamp(t *testing.T) {
	m := FromEigen(1e8, 1e-2, geom.V(1, 0)) // h: 1e-4 .. 10
	c := m.Clamp(1e-2, 1, 20)
	l1, l2, _ := c.Eigen()
	// Spacings clamped to [1e-2, 1] then aspect to 20: l1 = 1e4,
	// l2 raised from 1 to 1e4/400 = 25.
	near(t, l1, 1e4, 1e-6, "l1")
	near(t, l2, 25, 1e-6, "l2")
	if a := c.Aspect(); a > 20+1e-9 {
		t.Fatalf("aspect %g exceeds clamp 20", a)
	}
}

func TestIntersectDominatesBoth(t *testing.T) {
	a := FromEigen(100, 1, geom.V(1, 0))
	b := FromEigen(1, 100, geom.V(1, 0))
	i := Intersect(a, b)
	// Symmetric.
	j := Intersect(b, a)
	near(t, j.XX, i.XX, 1e-9, "sym XX")
	near(t, j.XY, i.XY, 1e-9, "sym XY")
	near(t, j.YY, i.YY, 1e-9, "sym YY")
	// Idempotent.
	k := Intersect(a, a)
	near(t, k.XX, a.XX, 1e-9, "idem XX")
	// Dominates both arguments in every direction.
	for deg := 0; deg < 180; deg += 7 {
		v := geom.V(1, 0).Rotate(float64(deg) * math.Pi / 180)
		if i.Len(v) < a.Len(v)-1e-9 || i.Len(v) < b.Len(v)-1e-9 {
			t.Fatalf("direction %d°: intersection length %g below max(%g, %g)",
				deg, i.Len(v), a.Len(v), b.Len(v))
		}
	}
}

func TestInterpEndpointsAndMonotone(t *testing.T) {
	a := Iso(0.1)
	b := Iso(0.4)
	near(t, Interp(a, b, 0).XX, a.XX, 1e-9, "t=0")
	near(t, Interp(a, b, 1).XX, b.XX, 1e-9, "t=1")
	// Geometric midpoint of spacings: h = sqrt(0.1*0.4) = 0.2.
	mid := Interp(a, b, 0.5)
	near(t, 1/math.Sqrt(mid.XX), 0.2, 1e-9, "midpoint spacing")
}

func TestEdgeLenQuadrature(t *testing.T) {
	p, q := geom.Pt(0, 0), geom.Pt(1, 0)
	// Equal endpoint metrics: plain length ratio.
	near(t, EdgeLen(p, q, Iso(0.5), Iso(0.5)), 2, 1e-9, "uniform")
	// Geometric quadrature between h=1 (len 1) and h=0.25 (len 4):
	// (1-4)/ln(1/4).
	want := 3 / math.Log(4)
	near(t, EdgeLen(p, q, Iso(1), Iso(0.25)), want, 1e-9, "graded")
	// Symmetric in the endpoints.
	near(t, EdgeLen(q, p, Iso(0.25), Iso(1)), want, 1e-9, "reversed")
}

func TestTriQualityEquilateral(t *testing.T) {
	h := 0.3
	a := geom.Pt(0, 0)
	b := geom.Pt(h, 0)
	c := geom.Pt(h/2, h*math.Sqrt(3)/2)
	m := Iso(h)
	q := TriQuality(a, b, c, m, m, m)
	near(t, q, 1, 1e-9, "equilateral quality")
	// A stretched metric makes the same element poor.
	s := FromSpacings(h/10, h, geom.V(1, 0))
	if qs := TriQuality(a, b, c, s, s, s); qs > 0.5 {
		t.Fatalf("stretched-metric quality %g, want < 0.5", qs)
	}
}

func TestParseSpec(t *testing.T) {
	f, err := ParseSpec("uniform:h=0.2")
	if err != nil {
		t.Fatal(err)
	}
	near(t, f(geom.Pt(3, 4)).Len(geom.V(0.2, 0)), 1, 1e-9, "uniform")

	f, err = ParseSpec("bl:x0=0,y0=0,x1=1,y1=0,hn=0.01,ht=0.1,grow=1")
	if err != nil {
		t.Fatal(err)
	}
	// On the wall: normal spacing hn, tangential ht.
	m := f(geom.Pt(0.5, 0))
	near(t, m.Len(geom.V(0, 0.01)), 1, 1e-9, "wall normal")
	near(t, m.Len(geom.V(0.1, 0)), 1, 1e-9, "wall tangent")
	// At distance 0.02: normal spacing 0.03.
	m = f(geom.Pt(0.5, 0.02))
	near(t, m.Len(geom.V(0, 0.03)), 1, 1e-9, "grown normal")
	// Far away: isotropic ht.
	m = f(geom.Pt(0.5, 5))
	near(t, m.Len(geom.V(0.1, 0)), 1, 1e-9, "farfield")
	near(t, m.Aspect(), 1, 1e-9, "farfield isotropy")

	for _, bad := range []string{"nope:h=1", "uniform:h=-1", "bl:hn=1,ht=0.1", "uniform:h"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

// randSPD draws a metric with principal spacings log-uniform in
// [1e-5, 1e2] and aspect ratio up to 1e3, in a random direction. That
// spans what ParseSpec and FromHessian produce: FromHessian clamps
// spacings to [1e-4, 0.25] of the mesh diameter and aspect to 100.
func randSPD(rng *rand.Rand) M {
	h1 := math.Pow(10, -5+7*rng.Float64())
	h2 := h1 * math.Pow(10, 3*rng.Float64())
	th := math.Pi * rng.Float64()
	return FromSpacings(h1, h2, geom.V(math.Cos(th), math.Sin(th)))
}

// randTri draws three points around the origin at a random scale, with
// random orientation, so degenerate-looking and inverted elements occur.
func randTri(rng *rand.Rand) [3]geom.Point {
	s := math.Pow(10, -5+7*rng.Float64())
	var p [3]geom.Point
	for i := range p {
		p[i] = geom.Pt(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5))
	}
	return p
}

func sameBits(a, b M) bool {
	return math.Float64bits(a.XX) == math.Float64bits(b.XX) &&
		math.Float64bits(a.XY) == math.Float64bits(b.XY) &&
		math.Float64bits(a.YY) == math.Float64bits(b.YY)
}

// TestLogFormsBitIdentical: TriQualityLog and InterpLog fed the vertex
// logs return exactly TriQuality's and Interp's bits, in every vertex
// rotation. The adaptation engine's log cache relies on this to keep
// adapted meshes byte-identical.
func TestLogFormsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 2000; it++ {
		p := randTri(rng)
		m := [3]M{randSPD(rng), randSPD(rng), randSPD(rng)}
		if it%5 == 0 {
			m[1] = m[0] // shared tensors, as along a uniform field
		}
		for r := 0; r < 3; r++ {
			i, j, k := r, (r+1)%3, (r+2)%3
			want := TriQuality(p[i], p[j], p[k], m[i], m[j], m[k])
			got := TriQualityLog(p[i], p[j], p[k], m[i], m[j], m[k], m[i].Log(), m[j].Log(), m[k].Log())
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("iteration %d rotation %d: TriQualityLog %v, TriQuality %v", it, r, got, want)
			}
		}
		for _, tt := range []float64{0, 0.25, 0.5, 1} {
			want := Interp(m[0], m[1], tt)
			if got := InterpLog(m[0].Log(), m[1].Log(), tt); !sameBits(got, want) {
				t.Fatalf("iteration %d t=%g: InterpLog %+v, Interp %+v", it, tt, got, want)
			}
		}
	}
}

// TestTriQualityFiniteSPD: over the tensor range the metric sources
// produce, TriQuality is finite and non-negative for any triangle,
// inverted and degenerate ones included. The adaptation engine's early
// rejects in evalSwap and evalSmooth equal a test of the minimum quality
// only because no NaN ever reaches math.Min.
func TestTriQualityFiniteSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 20000; it++ {
		p := randTri(rng)
		switch it % 4 {
		case 1:
			p[2] = p[0].Mid(p[1]) // collinear
		case 2:
			p[1] = p[0] // coincident
		}
		ma, mb, mc := randSPD(rng), randSPD(rng), randSPD(rng)
		if !ma.SPD() || !mb.SPD() || !mc.SPD() {
			t.Fatalf("iteration %d: drew a non-SPD tensor", it)
		}
		q := TriQuality(p[0], p[1], p[2], ma, mb, mc)
		if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
			t.Fatalf("iteration %d: TriQuality(%v, %+v %+v %+v) = %v", it, p, ma, mb, mc, q)
		}
	}
}
