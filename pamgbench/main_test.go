package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pamg2d/internal/geom"
	"pamg2d/internal/metric"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return v
	}
	cases := []struct {
		n      int
		want   tail
		reason string
	}{
		{100, tail{Pct: 90, Value: 90, Beyond: 10, N: 100}, "p91 would leave 9 beyond"},
		{25, tail{Pct: 60, Value: 15, Beyond: 10, N: 25}, "nearest rank 15 of 25"},
		{11, tail{Pct: 9, Value: 1, Beyond: 10, N: 11}, "only the minimum has 10 beyond"},
		{10, tail{Pct: 100, Value: 10, Beyond: 0, N: 10}, "too few samples: maximum, nothing beyond"},
	}
	for _, c := range cases {
		if got := tailPercentile(seq(c.n)); got != c.want {
			t.Errorf("n=%d: got %+v, want %+v (%s)", c.n, got, c.want, c.reason)
		}
	}
	if got := tailPercentile(nil); got != (tail{}) {
		t.Errorf("empty: got %+v", got)
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "b", Start: 3, End: 6},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 8, End: 12}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "a.1", Start: 2, End: 3},
		{ID: 5, Parent: -1, Name: "other", Start: 20, End: 21},
	}
	got := selfTimes(spans)
	want := map[int]float64{0: 3, 1: 2, 2: 3, 3: 4, 4: 1, 5: 1}
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-12 {
			t.Errorf("span %d (%s): self %v, want %v", id, spans[id].Name, got[id], w)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	root := r.begin("op", -1, 7)
	r.time("child", root, 7, func() {})
	r.end(root)
	sp := r.snapshot()
	if len(sp) != 2 || sp[1].Parent != root || sp[1].Op != 7 || sp[0].Parent != -1 {
		t.Fatalf("spans %+v", sp)
	}
	if sp[1].Start < sp[0].Start || sp[1].End > sp[0].End {
		t.Errorf("child %+v not inside root %+v", sp[1], sp[0])
	}
}

func TestFailureAccounting(t *testing.T) {
	ops := []outcome{
		{Seconds: 1, CPU: 1.5, Tris: 100},
		{Seconds: 2, CPU: 2.5, Tris: 100},
		{Seconds: 3, CPU: 3.5, Tris: 100},
		// A failed op still took its time, but its triangles do not count.
		{Seconds: 10, CPU: 12, Tris: 999, Err: errors.New("core: stage audit: collected 21 of 22\nmore detail")},
	}
	s := summarize(ops, 20, 30)
	if s.Attempted != 4 || s.Failed != 1 {
		t.Fatalf("attempted %d failed %d", s.Attempted, s.Failed)
	}
	if s.P50 != 2.5 || s.CPUP50 != 3 {
		t.Errorf("p50 %v, cpu p50 %v, want 2.5 and 3 (the failed op's time counts)", s.P50, s.CPUP50)
	}
	if s.TriPerS != 15 || s.TriPerCPUS != 10 {
		t.Errorf("tri_per_s %v, tri_per_cpu_s %v, want 300/20 and 300/30", s.TriPerS, s.TriPerCPUS)
	}
	if s.FailRatio != 0.25 {
		t.Errorf("fail_ratio %v", s.FailRatio)
	}
	if want := (failures{"core: stage audit: collected 21 of 22": 1}); !reflect.DeepEqual(s.Errors, want) {
		t.Errorf("errors %v, want %v", s.Errors, want)
	}
}

func TestRepeatCheckFailsDivergentMesh(t *testing.T) {
	ops := []outcome{
		{Input: 0, Hash: "a", Tris: 1},
		{Input: 1, Hash: "b", Tris: 1},
		{Input: 0, Hash: "a", Tris: 1},
		{Input: 0, Hash: "c", Tris: 1},
	}
	checkRepeats(ops)
	for i, o := range ops {
		if (o.Err != nil) != (i == 3) {
			t.Errorf("op %d: err %v", i, o.Err)
		}
	}
}

func TestSameSeedSameAoASequence(t *testing.T) {
	for _, w := range workloads {
		a, b := aoaPool(42, w.aoaLo, w.aoaHi), aoaPool(42, w.aoaLo, w.aoaHi)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: pool differs for one seed", w.name)
		}
		if reflect.DeepEqual(a, aoaPool(43, w.aoaLo, w.aoaHi)) {
			t.Errorf("%s: seeds 42 and 43 drew the same pool", w.name)
		}
		width := (w.aoaHi - w.aoaLo) / poolSize
		for k, x := range a {
			if lo := w.aoaLo + float64(k)*width; x < lo || x > lo+width {
				t.Errorf("%s: angle %d = %v outside its stratum [%v, %v]", w.name, k, x, lo, lo+width)
			}
		}
	}
	s1, s2, s3 := opSequence(42), opSequence(42), opSequence(43)
	same, diff := true, false
	for i := 0; i < 64; i++ {
		x, y, z := s1(), s2(), s3()
		same = same && x == y
		diff = diff || x != z
	}
	if !same || !diff {
		t.Errorf("op sequence: same seed equal %v, other seed differs %v", same, diff)
	}
	// Every round of poolSize ops uses each input once.
	next := opSequence(5)
	for r := 0; r < 4; r++ {
		seen := map[int]bool{}
		for i := 0; i < poolSize; i++ {
			seen[next()] = true
		}
		if len(seen) != poolSize {
			t.Errorf("round %d used %d of %d inputs", r, len(seen), poolSize)
		}
	}
}

func TestRotatedConfigsValidate(t *testing.T) {
	for _, w := range workloads {
		if w.config == nil {
			continue
		}
		for _, aoa := range append([]float64{w.aoaLo, 0, w.aoaHi}, aoaPool(7, w.aoaLo, w.aoaHi)...) {
			cfg := w.config(aoa)
			g, err := cfg.Geometry.Graph()
			if err != nil {
				t.Fatalf("%s at %v degrees: %v", w.name, aoa, err)
			}
			// A rigid rotation keeps every element's shape: compare the
			// rotated loops' edge lengths with the unrotated ones.
			g0, err := w.config(0).Geometry.Graph()
			if err != nil {
				t.Fatal(err)
			}
			for i := range g.Surfaces {
				p, q := g.Surfaces[i].Points, g0.Surfaces[i].Points
				for j := 1; j < len(p); j++ {
					if d := math.Abs(p[j].Sub(p[j-1]).Len() - q[j].Sub(q[j-1]).Len()); d > 1e-12 {
						t.Fatalf("%s at %v degrees: element %d edge %d changed length by %v", w.name, aoa, i, j, d)
					}
				}
			}
		}
	}
	// The rotation pitches the nose up: at a positive angle the main
	// element's trailing edge moves below the chord line.
	g, err := workloads[0].config(10).Geometry.Graph()
	if err != nil {
		t.Fatal(err)
	}
	te := g.Surfaces[0].Points[0]
	if te.Y >= 0 || math.Abs(te.Sub(geom.Pt(0, 0)).Len()-1) > 1e-9 {
		t.Errorf("trailing edge at 10 degrees: %v", te)
	}
}

func TestAdaptSpecRotates(t *testing.T) {
	for _, aoa := range []float64{-4, 0, 7.5} {
		spec := adaptSpec(aoa)
		if _, err := metric.ParseSpec(spec); err != nil {
			t.Fatalf("%v degrees: %q: %v", aoa, spec, err)
		}
		var x1, y1 float64
		for _, kv := range strings.Split(strings.TrimPrefix(spec, "bl:"), ",") {
			k, v, _ := strings.Cut(kv, "=")
			f, _ := strconv.ParseFloat(v, 64)
			switch k {
			case "x1":
				x1 = f
			case "y1":
				y1 = f
			}
		}
		th := aoa * math.Pi / 180
		if math.Abs(x1-math.Cos(th)) > 1e-12 || math.Abs(y1+math.Sin(th)) > 1e-12 {
			t.Errorf("%v degrees: chord end (%v, %v) in %q", aoa, x1, y1, spec)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d]: json %v, program %s %s", i, spec.PerLayer[i], m.name, m.unit)
		}
	}
	printed := endToEnd(summary{}, 0, 0)
	if len(spec.EndToEnd) != len(printed) {
		t.Errorf("end_to_end lists %d metrics, the program prints %d", len(spec.EndToEnd), len(printed))
	}
	for _, m := range spec.EndToEnd {
		if printed[m.Name].Unit != m.Unit {
			t.Errorf("end_to_end %s %s not printed by the program", m.Name, m.Unit)
		}
	}
}
