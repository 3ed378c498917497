package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
)

// TestStageOrder locks in the stage graph: a full run records exactly the
// six pipeline stages, in order, with wall time measured for each.
func TestStageOrder(t *testing.T) {
	res, err := Generate(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{StageValidate, StageRays, StageRayInsertion,
		StageBLTriangulation, StageInviscid, StageMerge}
	if len(res.Stats.Stages) != len(want) {
		t.Fatalf("recorded %d stages, want %d: %+v", len(res.Stats.Stages), len(want), res.Stats.Stages)
	}
	for i, s := range res.Stats.Stages {
		if s.Name != want[i] {
			t.Errorf("stage %d is %q, want %q", i, s.Name, want[i])
		}
		if s.Wall < 0 {
			t.Errorf("stage %q has negative wall time", s.Name)
		}
	}
	// The distributed stages are the only ones that talk on the wire.
	for _, s := range res.Stats.Stages {
		wired := s.Name == StageRayInsertion || s.Name == StageBLTriangulation || s.Name == StageInviscid
		if wired && s.Messages == 0 {
			t.Errorf("distributed stage %q recorded no messages", s.Name)
		}
		if !wired && s.Messages != 0 {
			t.Errorf("root-side stage %q recorded %d messages", s.Name, s.Messages)
		}
	}
}

// cancelDuring runs the pipeline with a context that is canceled by the
// first task of the named stage and returns the resulting error.
func cancelDuring(t *testing.T, stage string) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := smallConfig(2)
	cfg.TaskHook = func(s string, kind int) error {
		if s == stage {
			cancel()
		}
		return nil
	}
	_, err := GenerateContext(ctx, cfg)
	return err
}

func testCancelMidStage(t *testing.T, stage string) {
	t.Helper()
	g0, p0 := mpi.PoolCounters()
	err := cancelDuring(t, stage)
	if err == nil {
		t.Fatalf("canceling during %s did not fail the run", stage)
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PhaseError", err, err)
	}
	if pe.Stage != stage {
		t.Errorf("PhaseError.Stage = %q, want %q", pe.Stage, stage)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	g1, p1 := mpi.PoolCounters()
	if gets, puts := g1-g0, p1-p0; gets != puts {
		t.Errorf("pooled buffers leaked across cancellation: %d gets, %d puts", gets, puts)
	}
}

func TestCancelDuringRayInsertion(t *testing.T) {
	testCancelMidStage(t, StageRayInsertion)
}

func TestCancelDuringInviscid(t *testing.T) {
	testCancelMidStage(t, StageInviscid)
}

// TestCancelBeforeFirstStage covers the between-stage check: an already
// canceled context fails on the first stage without running anything.
func TestCancelBeforeFirstStage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GenerateContext(ctx, smallConfig(1))
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PhaseError", err, err)
	}
	if pe.Stage != StageValidate {
		t.Errorf("PhaseError.Stage = %q, want %q", pe.Stage, StageValidate)
	}
	if pe.Rank != -1 {
		t.Errorf("cancellation before any rank ran has Rank = %d, want -1", pe.Rank)
	}
}

// TestTaskPanicAttribution makes one task panic, in a mesh stage and in
// the audit stage, and checks the run fails with a *PhaseError naming the
// stage, the executing rank, the task id and the panic value, instead of
// losing the task's result.
func TestTaskPanicAttribution(t *testing.T) {
	for _, stage := range []string{StageInviscid, StageAudit} {
		for _, ranks := range []int{1, 4} {
			cfg := smallConfig(ranks)
			cfg.Audit = true
			var once sync.Once
			cfg.TaskHook = func(st string, kind int) error {
				if st == stage {
					once.Do(func() { panic("injected task panic") })
				}
				return nil
			}
			_, err := Generate(cfg)
			if err == nil {
				t.Fatalf("%s/%d ranks: panicking task did not fail the run", stage, ranks)
			}
			var pe *PhaseError
			if !errors.As(err, &pe) {
				t.Fatalf("%s/%d ranks: error is %T (%v), want *PhaseError", stage, ranks, err, err)
			}
			if pe.Stage != stage {
				t.Errorf("%s/%d ranks: PhaseError.Stage = %q", stage, ranks, pe.Stage)
			}
			if pe.Rank < 0 || pe.Rank >= ranks {
				t.Errorf("%s/%d ranks: PhaseError.Rank = %d, want a rank in [0, %d)", stage, ranks, pe.Rank, ranks)
			}
			var tp *loadbal.TaskPanicError
			if !errors.As(err, &tp) {
				t.Fatalf("%s/%d ranks: error does not carry the task panic: %v", stage, ranks, err)
			}
			if tp.ID < 0 || tp.Value != "injected task panic" {
				t.Errorf("%s/%d ranks: task panic = %+v", stage, ranks, *tp)
			}
			if msg := err.Error(); !strings.Contains(msg, "stage "+stage) || !strings.Contains(msg, "panicked: injected task panic") {
				t.Errorf("%s/%d ranks: message %q does not name the stage and the panic", stage, ranks, msg)
			}
		}
	}
}

// TestTaskFailureAttribution injects a task failure in the inviscid phase
// and checks the PhaseError names the stage and the executing rank.
func TestTaskFailureAttribution(t *testing.T) {
	boom := errors.New("injected task failure")
	cfg := smallConfig(3)
	cfg.TaskHook = func(stage string, kind int) error {
		if stage == StageInviscid && kind == kindInviscid {
			return boom
		}
		return nil
	}
	_, err := Generate(cfg)
	if err == nil {
		t.Fatal("injected task failure did not fail the run")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PhaseError", err, err)
	}
	if pe.Stage != StageInviscid {
		t.Errorf("PhaseError.Stage = %q, want %q", pe.Stage, StageInviscid)
	}
	if pe.Rank < 0 || pe.Rank >= cfg.Ranks {
		t.Errorf("PhaseError.Rank = %d, want a rank in [0, %d)", pe.Rank, cfg.Ranks)
	}
	if !errors.Is(err, boom) {
		t.Errorf("error does not wrap the injected failure: %v", err)
	}
}

// TestCancelLeavesNoGoroutines drives a mid-stage cancellation and polls
// the goroutine count back to its pre-run level: every balancer and rank
// goroutine must drain.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if err := cancelDuring(t, StageInviscid); err == nil {
			t.Fatal("cancellation did not fail the run")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after canceled runs", before, runtime.NumGoroutine())
}

// TestGenerateTimeout exercises the deadline path end to end.
func TestGenerateTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := GenerateContext(ctx, smallConfig(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out run returned %v, want DeadlineExceeded", err)
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *PhaseError", err)
	}
}
