package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/benchcfg"
	"pamg2d/internal/blayer"
	"pamg2d/internal/core"
	"pamg2d/internal/geom"
)

// ranks is the rank count of every pipeline workload: the two CPUs of the
// reference host, one rank each.
const ranks = 2

// poolSize is the number of distinct inputs a run draws its operations
// from. Each input recurs several times in a run, which is what the
// same-input-same-mesh check needs.
const poolSize = 8

// kind selects how an operation drives the program.
type kind int

const (
	kindInProc kind = iota // Engine.Run on an in-process fabric
	kindTCP                // Engine.Run on both ends of a loopback TCP fabric
	kindAdapt              // one adapt.Cycles cycle
)

// workload is one named set of inputs. Pipeline workloads build their
// configuration from the drawn angle of attack; adapt-bl rotates its target
// metric instead.
type workload struct {
	name   string
	why    string
	kind   kind
	aoaLo  float64 // degrees
	aoaHi  float64
	config func(aoa float64) core.Config // pipeline workloads only
}

// pipelineConfig starts from core.DefaultConfig, the defaults meshgen and
// meshd start from, and sets only geometry, boundary layer, sizing, ranks
// and audit. It never touches the kernel knobs (KernelWorkers,
// KernelShuffle) that are slated for deletion, so deleting them leaves the
// benchmark unchanged.
func pipelineConfig(geo airfoil.Config, h0, gradation, hmax float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Geometry = geo
	cfg.BL = blayer.DefaultParams()
	cfg.SurfaceH0 = h0
	cfg.Gradation = gradation
	cfg.HMax = hmax
	cfg.Ranks = ranks
	cfg.Audit = true
	return cfg
}

var workloads = []workload{
	{
		name:  "naca-bl",
		why:   "boundary layer dominates: blayer, project and the BL Delaunay kernel are most of each op",
		kind:  kindInProc,
		aoaLo: -4, aoaHi: 12,
		config: func(aoa float64) core.Config {
			return pipelineConfig(rotate(airfoil.Single(airfoil.NACA0012, 256, 30), aoa), 0.02, 0.15, 4)
		},
	},
	{
		name:  "30p30n",
		why:   "three elements: the only input that runs blayer intersection resolution (adt, clip) and cusp fans",
		kind:  kindInProc,
		aoaLo: -2, aoaHi: 8,
		config: func(aoa float64) core.Config {
			return pipelineConfig(rotate(airfoil.ThreeElement(64), aoa), 0.02, 0.15, 4)
		},
	},
	{
		name:  "farfield-tcp",
		why:   "refinement, merge and audit dominate, and every op ships megabytes over a real TCP loopback",
		kind:  kindTCP,
		aoaLo: -4, aoaHi: 12,
		config: func(aoa float64) core.Config {
			return pipelineConfig(rotate(airfoil.Single(airfoil.NACA0012, 32, 30), aoa), 0.02, 0.05, 1)
		},
	},
	{
		name:  "adapt-bl",
		why:   "metric adaptation and the adapted-profile audit do all the work; no pipeline stage runs per op",
		kind:  kindAdapt,
		aoaLo: -4, aoaHi: 12,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// rotate returns cfg rigidly rotated by aoa degrees about the origin (the
// main element's leading edge), clockwise, so a positive angle pitches the
// nose up against a +x freestream. Each element's placement composes with
// the rotation; the far field stays axis-aligned around the rotated
// elements, as Config.Graph builds it.
func rotate(cfg airfoil.Config, aoa float64) airfoil.Config {
	out := cfg
	out.Elements = append([]airfoil.Element(nil), cfg.Elements...)
	th := -aoa * math.Pi / 180
	for i := range out.Elements {
		pl := &out.Elements[i].Place
		pl.AngleDeg += aoa
		pl.Offset = pl.Offset.Rotate(th)
	}
	return out
}

// adaptSpec returns benchcfg.AdaptMetric with its chord line rotated to
// aoa, in the same sense as rotate.
func adaptSpec(aoa float64) string {
	th := -aoa * math.Pi / 180
	end := geom.V(1, 0).Rotate(th)
	spec := strings.Replace(benchcfg.AdaptMetric, "x1=1,y1=0",
		fmt.Sprintf("x1=%.17g,y1=%.17g", end.X, end.Y), 1)
	return spec
}

// aoaPool draws the run's input angles from seed: one angle in each of
// poolSize equal strata of [lo, hi], so every seed covers the range evenly
// and runs with different seeds measure comparable work.
func aoaPool(seed int64, lo, hi float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, poolSize)
	w := (hi - lo) / poolSize
	for k := range out {
		out[k] = lo + (float64(k)+rng.Float64())*w
	}
	return out
}

// opSequence returns the deterministic stream of pool indices the closed
// loop feeds, one per operation, also drawn from seed. It deals the pool in
// rounds, each a fresh shuffle of every index, so every input has the same
// share of a run's ops (to within one round) and the run's median does not
// move with how often the seed happened to draw a slow input.
func opSequence(seed int64) func() int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0fa0a))
	var round []int
	return func() int {
		if len(round) == 0 {
			round = rng.Perm(poolSize)
		}
		k := round[0]
		round = round[1:]
		return k
	}
}
