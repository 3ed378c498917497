package adapt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"pamg2d/internal/benchcfg"
	"pamg2d/internal/core"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
)

// goldenHash is a sha256 of the mesh's exact point bits and connectivity.
func goldenHash(m *mesh.Mesh) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range m.Points {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.X))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.Y))
		h.Write(b[:])
	}
	for _, t := range m.Triangles {
		for _, v := range t {
			binary.LittleEndian.PutUint32(b[:4], uint32(v))
			h.Write(b[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rotatedAdaptMetric returns benchcfg.AdaptMetric with its chord line
// rotated clockwise by aoa degrees, the way the adapt-bl benchmark
// workload draws its targets.
func rotatedAdaptMetric(aoa float64) string {
	end := geom.V(1, 0).Rotate(-aoa * math.Pi / 180)
	return strings.Replace(benchcfg.AdaptMetric, "x1=1,y1=0",
		fmt.Sprintf("x1=%.17g,y1=%.17g", end.X, end.Y), 1)
}

// TestAdaptGoldenHash pins the exact adapted PushButton mesh at two chord
// rotations, with new vertices interpolated (Resample nil: the adapt-bl
// and meshgen path) and resampled from the analytic field (the
// BenchmarkPushButtonAdapt path). Evaluation-cost work on the engine must
// leave these hashes unchanged; a deliberate change to what adaptation
// produces re-records them.
func TestAdaptGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded on amd64; other targets may fuse multiply-adds")
	}
	cfg := benchcfg.PushButton()
	cfg.Ranks = 1
	res, err := core.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := res.Mesh
	cases := []struct {
		aoa      float64
		resample bool
		want     string
	}{
		{-3, false, "0fca099087055b58edf843887b7282e058c63eca5da73beb98e8e7e9bbc47784"},
		{-3, true, "bcc43d93d64c314c9b952ada281da0b9d832ed696e124c201ba79324773a94b0"},
		{9, false, "e0d3ec7f05e27b245705cd3e4d5f15b22362fb704bf503f9464ed812dcea2364"},
		{9, true, "e2decffd483e4712581cac0f80e28f87acd2e83fbda72ec53352424096fd8383"},
	}
	for _, c := range cases {
		fn, err := metric.ParseSpec(rotatedAdaptMetric(c.aoa))
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{}
		if c.resample {
			opt.Resample = fn
		}
		out, _, err := Adapt(base, metric.Analytic(base, fn), opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenHash(out); got != c.want {
			t.Errorf("aoa %g resample %v: adapted mesh hash %s, want %s", c.aoa, c.resample, got, c.want)
		}
	}
}
