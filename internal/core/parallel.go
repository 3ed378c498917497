package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pamg2d/internal/blayer"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/front"
	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
	"pamg2d/internal/project"
	"pamg2d/internal/sizing"
	"pamg2d/internal/trace"
)

// Message tags of the pipeline's own protocol (distinct from the
// balancer's range).
const (
	tagResult = iota + 200
	// tagErrSync carries each worker's post-phase failure flag to the
	// root in multi-process runs (the collect leg of the star-shaped
	// agreement; the slot after it is reserved from the protocol's
	// earlier Allreduce-based shape).
	tagErrSync
	_
	// tagResultSync carries the root's combined verdict + result payload
	// back to each worker (the distribute leg of the agreement).
	tagResultSync
)

// taskKind distinguishes the payload encodings.
const (
	kindBLLeaf = iota
	kindTransition
	kindInviscid
	kindRayBatch
)

// taskKindName labels a task's trace span by its payload kind.
func taskKindName(vals []float64) string {
	if len(vals) == 0 {
		return "task"
	}
	switch int(vals[0]) {
	case kindBLLeaf:
		return "task/bl-leaf"
	case kindTransition:
		return "task/transition"
	case kindInviscid:
		return "task/inviscid"
	case kindRayBatch:
		return "task/ray-batch"
	}
	return "task"
}

// blLeafVals builds a projection-decomposition leaf task: kind, the owned
// circumcenter region, then the x-sorted points. The slice is allocated at
// its exact final size and travels by reference through the balancer; its
// serialized form would be mpi.EncodeFloats(vals).
func blLeafVals(leaf *project.Subdomain) []float64 {
	vals := make([]float64, 0, 5+2*len(leaf.XS))
	vals = append(vals, kindBLLeaf,
		leaf.Region.MinX, leaf.Region.MaxX, leaf.Region.MinY, leaf.Region.MaxY)
	for _, v := range leaf.XS {
		vals = append(vals, v.P.X, v.P.Y)
	}
	return vals
}

// regionTaskVals builds a transition input or inviscid region border task
// at its exact final size.
func regionTaskVals(kind int, pts []geom.Point, segs [][2]int32, holes []geom.Point) []float64 {
	vals := make([]float64, 0, 4+2*len(pts)+2*len(segs)+2*len(holes))
	vals = append(vals, float64(kind), float64(len(pts)), float64(len(segs)), float64(len(holes)))
	for _, p := range pts {
		vals = append(vals, p.X, p.Y)
	}
	for _, s := range segs {
		vals = append(vals, float64(s[0]), float64(s[1]))
	}
	for _, h := range holes {
		vals = append(vals, h.X, h.Y)
	}
	return vals
}

// taskCtx carries the shared read-only context every task needs.
type taskCtx struct {
	frame  geom.BBox
	size   sizing.Func
	kernel Kernel
	bl     blayer.Params
	// hook, when set (tests only), runs before each task's kind dispatch;
	// a non-nil return fails the task on the executing rank.
	hook func(kind int) error
}

// processTask executes a task's value vector and returns the produced
// floats: triangles as 6 values each for meshing tasks, flat point
// coordinates for ray-insertion batches.
func processTask(vals []float64, frame geom.BBox, size sizing.Func) ([]float64, error) {
	return processTaskCtx(vals, taskCtx{frame: frame, size: size})
}

// processTaskCtx is processTask with the full shared context. The vals
// slice is the task's Vals vector (or the decoded Payload for tasks that
// arrived serialized); it is only read.
func processTaskCtx(vals []float64, ctx taskCtx) ([]float64, error) {
	frame := ctx.frame
	size := ctx.size
	kernel := ctx.kernel
	if len(vals) == 0 {
		return nil, fmt.Errorf("core: empty task payload")
	}
	if ctx.hook != nil {
		if err := ctx.hook(int(vals[0])); err != nil {
			return nil, err
		}
	}
	switch int(vals[0]) {
	case kindRayBatch:
		nRays := int(vals[1])
		// The planned per-ray counts are in the payload, so the output size
		// is known up front: two coordinates per planned point.
		planned := 0
		for i, off := 0, 2; i < nRays; i, off = i+1, off+10 {
			planned += int(vals[off+9])
		}
		out := make([]float64, 0, 2*planned)
		off := 2
		for i := 0; i < nRays; i++ {
			r := blayer.Ray{
				Origin:      geom.Pt(vals[off], vals[off+1]),
				Dir:         geom.V(vals[off+2], vals[off+3]),
				MaxLen:      vals[off+4],
				Tangential:  vals[off+5],
				Fan:         vals[off+6] != 0,
				FanBisector: geom.V(vals[off+7], vals[off+8]),
			}
			count := int(vals[off+9])
			off += 10
			for _, q := range blayer.InsertRay(&r, ctx.bl, count) {
				out = append(out, q.X, q.Y)
			}
		}
		return out, nil
	case kindBLLeaf:
		region := project.Rect{MinX: vals[1], MaxX: vals[2], MinY: vals[3], MaxY: vals[4]}
		coords := vals[5:]
		pts := make([]geom.Point, len(coords)/2)
		for i := range pts {
			pts[i] = geom.Pt(coords[2*i], coords[2*i+1])
		}
		if len(pts) < 3 {
			return nil, nil
		}
		res, err := delaunay.Triangulate(delaunay.Input{Points: pts, Sorted: true, Frame: frame})
		if err != nil {
			return nil, err
		}
		out := make([]float64, 0, 6*len(res.Triangles))
		for _, tri := range res.Triangles {
			a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
			if region.Contains(geom.Circumcenter(a, b, c)) {
				out = append(out, a.X, a.Y, b.X, b.Y, c.X, c.Y)
			}
		}
		return out, nil
	case kindTransition, kindInviscid:
		np := int(vals[1])
		useAF := kernel == KernelAdvancingFront && int(vals[0]) == kindInviscid
		ns := int(vals[2])
		nh := int(vals[3])
		off := 4
		in := delaunay.Input{
			Frame:    frame,
			Points:   make([]geom.Point, 0, np),
			Segments: make([][2]int32, 0, ns),
			Holes:    make([]geom.Point, 0, nh),
		}
		for i := 0; i < np; i++ {
			in.Points = append(in.Points, geom.Pt(vals[off+2*i], vals[off+2*i+1]))
		}
		off += 2 * np
		for i := 0; i < ns; i++ {
			in.Segments = append(in.Segments, [2]int32{int32(vals[off+2*i]), int32(vals[off+2*i+1])})
		}
		off += 2 * ns
		for i := 0; i < nh; i++ {
			in.Holes = append(in.Holes, geom.Pt(vals[off+2*i], vals[off+2*i+1]))
		}
		if useAF {
			// The decoupled region's border is one closed CCW loop already
			// discretized at the k-rule spacing, which is finer than the
			// sizing target, so the advancing front adds no border points
			// and conformity with the neighbors is preserved.
			m, err := front.Mesh([][]geom.Point{in.Points}, front.Options{SizeAt: size})
			if err != nil {
				return nil, err
			}
			out := make([]float64, 0, 6*m.NumTriangles())
			for _, tri := range m.Triangles {
				a, b, c := m.Points[tri[0]], m.Points[tri[1]], m.Points[tri[2]]
				out = append(out, a.X, a.Y, b.X, b.Y, c.X, c.Y)
			}
			return out, nil
		}
		res, err := delaunay.TriangulateRefined(in, qualityFor(size))
		if err != nil {
			return nil, err
		}
		out := make([]float64, 0, 6*len(res.Triangles))
		for _, tri := range res.Triangles {
			a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
			out = append(out, a.X, a.Y, b.X, b.Y, c.X, c.Y)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("core: unknown task kind %v", vals[0])
	}
}

// taskResult carries one task's output floats to the root by reference.
// On a real interconnect the result would be EncodeFloats(append([ID],
// tris...)), so its wire size is 8*(1+len(tris)) bytes.
type taskResult struct {
	id   int32
	tris []float64
}

func (r *taskResult) wireBytes() int { return 8 * (1 + len(r.tris)) }

// runDistributed is the pipeline's single distributed-phase executor: it
// runs the given tasks under the work-stealing load balancer on a fresh
// world and returns each task's result floats (indexed by task ID) as
// collected at the root. Tasks and results move through the in-process
// fabric by reference; every transfer is accounted at the size its
// serialized form would occupy, so the wire statistics match a
// byte-serialized run exactly.
//
// Cancellation of rc's context tears the world down mid-phase: in-flight
// tasks finish, both balancer goroutines on every rank drain, and the
// call returns a *PhaseError carrying the stage name and the context's
// cause. A task or rank failure is returned the same way, attributed to
// the rank it occurred on.
func runDistributed(rc *RunCtx, stage string, tasks []loadbal.Task, tctx taskCtx) ([][]float64, error) {
	cfg := rc.cfg
	if cfg.TaskHook != nil {
		hook := cfg.TaskHook
		tctx.hook = func(kind int) error { return hook(stage, kind) }
	}
	tr := rc.tracer
	world := rc.newWorld()
	world.SetTracer(tr)
	win := world.NewWindow(cfg.Ranks)

	// Deal tasks round-robin. Every process computed the identical task
	// list (the pipeline is SPMD), so in a multi-process run each process
	// simply keeps the share of its own rank; in-process, the root's deal
	// is the distribution.
	initial := make([][]loadbal.Task, cfg.Ranks)
	for i, t := range tasks {
		r := i % cfg.Ranks
		initial[r] = append(initial[r], t)
	}

	var mu sync.Mutex
	measures := make([]TaskMeasure, len(tasks))
	balStats := make([]loadbal.Stats, cfg.Ranks)
	perRank := make([]RankStat, cfg.Ranks)
	var taskErr *PhaseError

	opt := loadbal.DefaultOptions(totalCost(tasks), cfg.Ranks)
	opt.Tracer = tr
	wireRecovery(&opt, world, tasks, initial)
	err := world.RunCtx(rc.ctx, func(c *mpi.Comm) error {
		bs, err := loadbal.Run(rc.ctx, c, win, initial[c.Rank()], len(tasks), opt, func(task loadbal.Task) {
			vals := task.Vals
			if vals == nil && task.Payload != nil {
				vals = mpi.DecodeFloats(task.Payload)
			}
			var sp trace.Span
			if tr.Enabled() {
				sp = tr.Begin(c.Rank(), trace.CatTask, taskKindName(vals))
			}
			t0 := time.Now()
			tris, perr := processTaskCtx(vals, tctx)
			dt := time.Since(t0)
			if tr.Enabled() {
				sp.End(trace.I("id", int(task.ID)), trace.F("cost", task.Cost),
					trace.I("tris", len(tris)/6))
				tr.Metrics().Observe("task.seconds", dt.Seconds())
			}
			if perr != nil {
				mu.Lock()
				if taskErr == nil {
					taskErr = &PhaseError{Stage: stage, Rank: c.Rank(), Err: fmt.Errorf("task %d: %w", task.ID, perr)}
				}
				mu.Unlock()
				tris = nil
			}
			mu.Lock()
			measures[task.ID] = TaskMeasure{
				Seconds:       dt.Seconds(),
				Bytes:         int64(8*len(task.Vals) + len(task.Payload)),
				BoundaryLayer: task.BoundaryLayer,
				Triangles:     len(tris) / 6,
			}
			perRank[c.Rank()].Tasks++
			perRank[c.Rank()].Busy += dt
			mu.Unlock()
			// Ship the result to the root ahead of the completion message,
			// by reference but accounted at its serialized size. A failed
			// send means the world is tearing down; the cause surfaces from
			// the balancer return and the context check below.
			res := &taskResult{id: task.ID, tris: tris}
			_ = c.SendRef(0, tagResult, res, res.wireBytes())
		})
		mu.Lock()
		balStats[c.Rank()] = bs
		mu.Unlock()
		return err
	})
	// Error precedence: cancellation first (it is the root cause of any
	// rank errors it provoked), then rank/world failures, then the first
	// task-processing failure.
	if rc.ctx.Err() != nil {
		return nil, &PhaseError{Stage: stage, Rank: -1, Err: context.Cause(rc.ctx)}
	}
	if err != nil {
		return nil, phaseError(stage, err)
	}
	mu.Lock()
	firstTaskErr := taskErr
	mu.Unlock()
	// A task failure is local knowledge: in a multi-process run the other
	// processes completed the phase cleanly (the failed task shipped a nil
	// result) and must be told before anyone returns, or they would march
	// on alone. The agreement below handles that; in-process, everyone
	// shares taskErr and the phase can fail immediately.
	if firstTaskErr != nil && !world.MultiProcess() {
		return nil, firstTaskErr
	}

	// Drain the results at the root (they were all enqueued before the
	// balancer's termination: each rank's result sends precede its
	// completion signals on the same ordered channel, and the balancer
	// terminates only after the root has observed every completion —
	// re-queued tasks may deliver a duplicate result, counted once). In a
	// multi-process run the drain is followed by the failure agreement and
	// the root's re-distribution of the full result set, so every process
	// leaves the phase with identical state.
	results := make([][]float64, len(tasks))
	have := make([]bool, len(tasks))
	collected := 0
	agreedErrRank := -1
	err = world.RunCtx(rc.ctx, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for collected < len(tasks) {
				ref, _, _, ok := c.TryRecvRef(mpi.AnySource, tagResult)
				if !ok {
					break
				}
				var id int
				var tris []float64
				switch p := ref.(type) {
				case *taskResult:
					id, tris = int(p.id), p.tris
				case []byte:
					vals := mpi.DecodeFloats(p)
					id, tris = int(vals[0]), vals[1:]
				default:
					continue
				}
				if id < 0 || id >= len(tasks) || have[id] {
					continue
				}
				have[id] = true
				results[id] = tris
				collected++
			}
		}
		if !world.MultiProcess() {
			return nil
		}
		mu.Lock()
		localFail := taskErr != nil
		mu.Unlock()
		rank, aerr := agreePhase(rc, c, localFail, func() ([]byte, error) {
			if collected != len(tasks) {
				return nil, fmt.Errorf("collected %d of %d task results", collected, len(tasks))
			}
			return encodeResults(results), nil
		}, func(body []byte) error {
			if derr := decodeResultsInto(body, results); derr != nil {
				return derr
			}
			collected = len(tasks)
			return nil
		})
		agreedErrRank = rank
		return aerr
	})
	if rc.ctx.Err() != nil {
		return nil, &PhaseError{Stage: stage, Rank: -1, Err: context.Cause(rc.ctx)}
	}
	if err != nil {
		return nil, phaseError(stage, err)
	}
	if firstTaskErr != nil {
		return nil, firstTaskErr
	}
	if agreedErrRank >= 0 {
		return nil, &PhaseError{Stage: stage, Rank: agreedErrRank, Err: fmt.Errorf("task failed on rank %d", agreedErrRank)}
	}
	if collected != len(tasks) {
		return nil, &PhaseError{Stage: stage, Rank: -1, Err: fmt.Errorf("collected %d of %d task results", collected, len(tasks))}
	}

	rc.stats.Tasks = append(rc.stats.Tasks, measures...)
	rc.foldBalancer(perRank, balStats)
	rc.wireMsgs += world.Stats().Messages.Load()
	rc.wireBytes += world.Stats().Bytes.Load()
	return results, nil
}

// wireRecovery arms the balancer's task re-queue path for multi-process
// runs: Assign mirrors the round-robin deal so the root knows every
// task's initial owner without a startup report, and Lookup
// re-materializes a task by ID when its owner dies. In-process worlds
// share fate across all ranks, so recovery stays off and the options
// carry no extra allocations.
func wireRecovery(opt *loadbal.Options, world *mpi.World, tasks []loadbal.Task, initial [][]loadbal.Task) {
	if !world.MultiProcess() {
		return
	}
	assign := make(map[int32]int, len(tasks))
	byID := make(map[int32]loadbal.Task, len(tasks))
	for r, share := range initial {
		for _, t := range share {
			assign[t.ID] = r
			byID[t.ID] = t
		}
	}
	opt.Assign = assign
	opt.Lookup = func(id int32) (loadbal.Task, bool) {
		t, ok := byID[id]
		return t, ok
	}
}

// agreePhase is the post-phase agreement of multi-process runs: every
// process must leave a distributed phase with the same verdict (which
// rank, if any, failed a task) and, on success, the same result set.
// The exchange is star-shaped — each worker sends its failure flag to
// the root and receives a combined verdict+results payload back — so it
// stays correct when survivors hold different views of the membership:
// every leg is a direct root<->worker exchange, and a leg to or from a
// dead rank fails fast with RankDeadError, which the root tolerates
// inline. Tree-shaped collectives would deadlock here when a process
// that has not yet observed a death waits on a parent that the
// better-informed root routed around.
//
// complete runs only on the root once no rank reported failure; it
// returns the encoded result payload. install runs on each worker with
// the root's result bytes. The returned rank is the agreed failing rank
// (-1 for a clean phase), identical on every surviving process.
func agreePhase(rc *RunCtx, c *mpi.Comm, localFail bool,
	complete func() ([]byte, error), install func([]byte) error) (int, error) {
	if c.Rank() != 0 {
		flag := -1.0
		if localFail {
			flag = float64(c.Rank())
		}
		if err := c.Send(0, tagErrSync, mpi.EncodeFloats([]float64{flag})); err != nil {
			return -1, err
		}
		buf, _, _, err := c.Recv(rc.ctx, 0, tagResultSync)
		if err != nil {
			return -1, err
		}
		if len(buf) < 8 {
			mpi.PutBytes(buf)
			return -1, fmt.Errorf("core: short agreement payload (%d bytes)", len(buf))
		}
		verdict := int(mpi.DecodeFloats(buf[:8])[0])
		if verdict >= 0 {
			mpi.PutBytes(buf)
			return verdict, nil
		}
		ierr := install(buf[8:])
		mpi.PutBytes(buf)
		return -1, ierr
	}

	// Root: collect the live workers' flags, tolerating deaths mid-phase
	// (a dead worker's flag simply never factors in; its tasks were
	// re-queued by the balancer, so the results are complete without it).
	fail := -1
	if localFail {
		fail = 0
	}
	for r := 1; r < c.Size(); r++ {
		if !c.Alive(r) {
			continue
		}
		buf, _, _, err := c.Recv(rc.ctx, r, tagErrSync)
		if err != nil {
			var de *mpi.RankDeadError
			if errors.As(err, &de) {
				continue
			}
			return -1, err
		}
		if len(buf) >= 8 {
			if v := int(mpi.DecodeFloats(buf[:8])[0]); v > fail {
				fail = v
			}
		}
		mpi.PutBytes(buf)
	}
	var body []byte
	var completeErr error
	if fail < 0 {
		body, completeErr = complete()
		if completeErr != nil {
			// Unblock the workers with a root-attributed failure verdict,
			// then surface the real error locally.
			fail = 0
			body = nil
		}
	}
	for r := 1; r < c.Size(); r++ {
		if !c.Alive(r) {
			continue
		}
		// Each worker gets its own payload copy: the fabric returns sent
		// buffers to the pool on delivery, so one shared slice across
		// sends would be a use-after-free.
		msg := mpi.GetBytes(8 + len(body))
		encodeFloatsTo(msg[:8], float64(fail))
		copy(msg[8:], body)
		if err := c.Send(r, tagResultSync, msg); err != nil {
			var de *mpi.RankDeadError
			if !errors.As(err, &de) {
				return -1, err
			}
		}
	}
	if completeErr != nil {
		return -1, completeErr
	}
	return fail, nil
}

// encodeFloatsTo writes one float64 into an 8-byte destination slot
// using the fabric's wire encoding.
func encodeFloatsTo(dst []byte, v float64) {
	copy(dst, mpi.EncodeFloats([]float64{v}))
}

// foldBalancer folds one distributed stage's per-rank execution summary
// and balancer counters into the run statistics: the raw records append
// to Stats.LoadBalance, the steal and idle totals accumulate into
// Stats.Steals, and the combined per-rank summary becomes the stage's
// StageStat.Ranks via rc.stageRanks. perRank arrives with Tasks/Busy
// already accumulated by the executor's callback.
func (rc *RunCtx) foldBalancer(perRank []RankStat, balStats []loadbal.Stats) {
	for r := range perRank {
		perRank[r].Rank = r
		perRank[r].Idle = balStats[r].IdleTime
		perRank[r].StealRequests = balStats[r].StealRequests
		perRank[r].StealsGranted = balStats[r].StealsGranted
		perRank[r].StealsGotten = balStats[r].StealsGotten
		rc.stats.Steals.Requests += balStats[r].StealRequests
		rc.stats.Steals.Granted += balStats[r].StealsGranted
		rc.stats.Steals.Gotten += balStats[r].StealsGotten
		rc.stats.Steals.Idle += balStats[r].IdleTime
		// Recovery counters are root-only in each phase's stats; summing
		// over ranks folds exactly the root's observations.
		rc.stats.Resilience.TasksRequeued += balStats[r].Requeued
		rc.stats.Resilience.RecoveryWall += balStats[r].RecoveryTime
	}
	rc.stats.LoadBalance = append(rc.stats.LoadBalance, balStats...)
	rc.stageRanks = perRank
}

func totalCost(tasks []loadbal.Task) float64 {
	var s float64
	for _, t := range tasks {
		s += t.Cost
	}
	return s
}
