package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"pamg2d/internal/adapt"
	"pamg2d/internal/benchcfg"
	"pamg2d/internal/core"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
	"pamg2d/internal/mpi"
)

// inBandFloor is the least in_band an adapt-bl cycle may reach and still
// pass: a faster but less converged adaptation must not count as a win.
// Every input of the drawn angle range reaches 0.932 to 0.937 today.
const inBandFloor = 0.92

// input is one pool entry: a drawn angle and what the program receives
// for it.
type input struct {
	aoa   float64
	cfg   core.Config                            // pipeline workloads
	field func(*mesh.Mesh) (metric.Field, error) // adapt-bl: metric builder
}

// session is one set-up's state: the engines and fabric an operation runs
// on, and the pool of inputs drawn from the seed.
type session struct {
	w        *workload
	inputs   []input
	eng      *core.Engine   // in-process engine: the op engine, or the TCP reference
	tcp      []*core.Engine // kindTCP: one engine per loopback process
	clusters []*mpi.Cluster
	base     *mesh.Mesh // kindAdapt: the mesh every cycle adapts
}

// newSession builds engines, fabric and the input pool for w. It runs no
// operation.
func newSession(ctx context.Context, w *workload, seed int64) (*session, error) {
	s := &session{w: w}
	for _, a := range aoaPool(seed, w.aoaLo, w.aoaHi) {
		in := input{aoa: a}
		if w.kind == kindAdapt {
			build, _, err := adapt.MetricSource(core.AdaptParams{Cycles: 1, Metric: adaptSpec(a)}, nil)
			if err != nil {
				return nil, err
			}
			in.field = build
		} else {
			in.cfg = w.config(a)
		}
		s.inputs = append(s.inputs, in)
	}
	var err error
	switch w.kind {
	case kindAdapt:
		err = s.buildAdaptInput(ctx)
	case kindTCP:
		if err = s.openTCP(ctx); err == nil {
			s.eng, err = core.NewEngine(core.EngineConfig{Ranks: ranks})
		}
	default:
		s.eng, err = core.NewEngine(core.EngineConfig{Ranks: ranks})
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// buildAdaptInput generates the benchcfg.PushButton mesh at one rank.
func (s *session) buildAdaptInput(ctx context.Context) error {
	eng, err := core.NewEngine(core.EngineConfig{Ranks: 1})
	if err != nil {
		return err
	}
	defer eng.Close()
	cfg := benchcfg.PushButton()
	cfg.Ranks = 1
	res, err := eng.Run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("adapt-bl input mesh: %w", err)
	}
	s.base = res.Mesh
	return nil
}

// openTCP joins two loopback TCP processes and gives each its engine.
func (s *session) openTCP(ctx context.Context) error {
	cls, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		return err
	}
	s.clusters = cls
	for _, cl := range cls {
		e, err := core.NewEngine(core.EngineConfig{Fabric: cl})
		if err != nil {
			return err
		}
		s.tcp = append(s.tcp, e)
	}
	return nil
}

func (s *session) close() {
	for _, e := range s.tcp {
		e.Close()
	}
	for _, cl := range s.clusters {
		cl.Close()
	}
	if s.eng != nil {
		s.eng.Close()
	}
}

// op runs one operation on pool entry k and checks its output. obs, when
// non-nil, is attached to the run (traced mode reads the run registries
// through it; it is nil for every timed end-to-end op).
func (s *session) op(ctx context.Context, k int, obs *runObs) outcome {
	o := outcome{Input: k}
	in := s.inputs[k]
	t0, c0 := time.Now(), cpuNow()
	var m *mesh.Mesh
	switch s.w.kind {
	case kindAdapt:
		var reps []adapt.CycleReport
		m, reps, o.Err = adapt.Cycles(s.base, core.AdaptParams{Cycles: 1}, adapt.Options{}, obs.wrapField(in.field))
		o.Seconds, o.CPU = time.Since(t0).Seconds(), cpuNow()-c0
		if o.Err == nil {
			o.Err = checkAdapted(reps)
		}
		if o.Err == nil {
			o.InBand = reps[len(reps)-1].Result.InBand
			if o.InBand < inBandFloor {
				o.Err = fmt.Errorf("check: in_band %.4f below %.2f", o.InBand, inBandFloor)
			}
		}
		if o.Err == nil {
			obs.setAdapt(reps[len(reps)-1].Result)
			obs.setMesh(m)
		}
	case kindTCP:
		m, o.Err = s.runTCP(ctx, in.cfg, obs)
		o.Seconds, o.CPU = time.Since(t0).Seconds(), cpuNow()-c0
	default:
		var res *core.Result
		res, o.Err = s.eng.Run(ctx, obs.attach(in.cfg, 0))
		o.Seconds, o.CPU = time.Since(t0).Seconds(), cpuNow()-c0
		if o.Err == nil {
			o.Err = checkPipeline(res)
			m = res.Mesh
			obs.setMesh(m)
		}
	}
	if o.Err == nil {
		o.Tris = m.NumTriangles()
		o.Hash = meshHash(m)
	}
	return o
}

// runTCP runs cfg on both loopback processes at once (the pipeline is
// SPMD) and checks that both produced the same audited mesh.
func (s *session) runTCP(ctx context.Context, cfg core.Config, obs *runObs) (*mesh.Mesh, error) {
	res := make([]*core.Result, len(s.tcp))
	errs := make([]error, len(s.tcp))
	var wg sync.WaitGroup
	for p, e := range s.tcp {
		wg.Add(1)
		go func(p int, e *core.Engine) {
			defer wg.Done()
			c := obs.attach(cfg, p)
			c.Ranks = 0 // adopt the fabric's size
			res[p], errs[p] = e.Run(ctx, c)
		}(p, e)
	}
	wg.Wait()
	for p := range res {
		if errs[p] == nil {
			errs[p] = checkPipeline(res[p])
		}
		if errs[p] != nil {
			return nil, fmt.Errorf("process %d: %w", p, errs[p])
		}
	}
	h0 := meshHash(res[0].Mesh)
	for p := 1; p < len(res); p++ {
		if meshHash(res[p].Mesh) != h0 {
			return nil, fmt.Errorf("tcp processes 0 and %d merged different meshes", p)
		}
	}
	obs.setMesh(res[0].Mesh)
	return res[0].Mesh, nil
}

// checkPipeline is the external output check of a pipeline run: the
// in-pipeline audit ran and found nothing, and there is a mesh.
func checkPipeline(res *core.Result) error {
	switch {
	case res == nil || res.Mesh == nil || res.Mesh.NumTriangles() == 0:
		return errors.New("check: run returned no mesh")
	case res.Stats.Audit == nil:
		return errors.New("check: audit stage did not run")
	case !res.Stats.Audit.Ok():
		return fmt.Errorf("check: audit: %w", res.Stats.Audit.Error())
	}
	return nil
}

// checkAdapted is the adapt-bl output check: the cycle's audit.Adapted
// report is present and clean.
func checkAdapted(reps []adapt.CycleReport) error {
	if len(reps) == 0 || reps[len(reps)-1].Audit == nil || reps[len(reps)-1].Result == nil {
		return errors.New("check: adapt cycle returned no report")
	}
	if err := reps[len(reps)-1].Audit.Error(); err != nil {
		return fmt.Errorf("check: adapted audit: %w", err)
	}
	return nil
}

// meshHash is a digest of the mesh's exact coordinates and connectivity.
func meshHash(m *mesh.Mesh) string {
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
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// checkRepeats fails every op whose mesh differs from the first mesh the
// run produced for the same input: the program is deterministic per
// configuration and rank count.
func checkRepeats(ops []outcome) {
	first := map[int]string{}
	for i := range ops {
		o := &ops[i]
		if o.Err != nil {
			continue
		}
		if h, ok := first[o.Input]; !ok {
			first[o.Input] = o.Hash
		} else if h != o.Hash {
			o.Err = fmt.Errorf("check: input %d gave mesh %s, earlier %s", o.Input, o.Hash, h)
		}
	}
}

// checkAgainstInProc runs each input the TCP ops used once on the
// in-process engine and fails the TCP ops whose mesh differs from it (or
// whose reference run failed). It runs after the measured phase, so it
// costs no measured time.
func (s *session) checkAgainstInProc(ctx context.Context, ops []outcome) {
	ref := map[int]string{}
	for i := range ops {
		o := &ops[i]
		if o.Err != nil {
			continue
		}
		h, ok := ref[o.Input]
		if !ok {
			res, err := s.eng.Run(ctx, s.inputs[o.Input].cfg)
			if err == nil {
				err = checkPipeline(res)
			}
			if err != nil {
				h = "in-process reference failed: " + err.Error()
			} else {
				h = meshHash(res.Mesh)
			}
			ref[o.Input] = h
		}
		if h != o.Hash {
			o.Err = fmt.Errorf("check: tcp mesh %s differs from in-process mesh (%s)", o.Hash, h)
		}
	}
}
