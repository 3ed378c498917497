package main

import (
	"context"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets up, so setup_s is a median.
const setupRepeats = 5

// minOps is the fewest ops a run measures, so a tail percentile with
// tailMinBeyond samples beyond it exists even for slow ops.
const minOps = tailMinBeyond + 1

// maxMeasure bounds the measured phase whatever minOps asks, so a run
// always ends inside its time limit.
const maxMeasure = 120 * time.Second

// opTimeout bounds one op, so a hang becomes an attributed failure.
const opTimeout = 60 * time.Second

// keepGoing reports whether a closed loop that has run n ops for elapsed
// should start another.
func keepGoing(elapsed, dur time.Duration, n int) bool {
	if elapsed >= maxMeasure {
		return false
	}
	return elapsed < dur || n < minOps
}

// setUp builds a session setupRepeats times, warming each up with one op,
// and keeps the last. It returns the median set-up time, in CPU seconds
// and in wall seconds.
func setUp(ctx context.Context, w *workload, seed int64) (s *session, cpuS, wallS float64, err error) {
	var cpus, walls []float64
	for r := 0; r < setupRepeats; r++ {
		if s != nil {
			s.close()
		}
		t0, c0 := time.Now(), cpuNow()
		if s, err = newSession(ctx, w, seed); err != nil {
			return nil, 0, 0, err
		}
		s.timedOp(ctx, 0, nil) // warm-up: outcome not counted
		cpus = append(cpus, cpuNow()-c0)
		walls = append(walls, time.Since(t0).Seconds())
	}
	return s, median(cpus), median(walls), nil
}

// timedOp is op under opTimeout.
func (s *session) timedOp(ctx context.Context, k int, obs *runObs) outcome {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	return s.op(ctx, k, obs)
}

// measure runs the untraced closed loop: one client, one op in flight,
// inputs drawn from the seed's op sequence, for at least dur. It returns
// the ops, the wall seconds of the loop and the CPU seconds the process
// used in it.
func measure(ctx context.Context, s *session, seed int64, dur time.Duration) (ops []outcome, wall, cpu float64) {
	next := opSequence(seed)
	start, c0 := time.Now(), cpuNow()
	for keepGoing(time.Since(start), dur, len(ops)) {
		ops = append(ops, s.timedOp(ctx, next(), nil))
	}
	return ops, time.Since(start).Seconds(), cpuNow() - c0
}

// check applies the checks that need more than one op: the same input
// gives the same mesh, and TCP meshes equal the in-process ones.
func (s *session) check(ctx context.Context, ops []outcome) {
	checkRepeats(ops)
	if s.w.kind == kindTCP {
		s.checkAgainstInProc(ctx, ops)
	}
}

// cpuNow returns the CPU time, user and system, that every thread of the
// process has used so far. Linux charges a thread only for time it ran, so
// time the hypervisor or a neighbour took from the CPUs is not in it.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
