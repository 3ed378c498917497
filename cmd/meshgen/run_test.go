package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pamg2d/internal/audit"
	"pamg2d/internal/core"
	"pamg2d/internal/mesh"
	"pamg2d/internal/trace"
)

func fastArgs(extra ...string) []string {
	base := []string{
		"-n", "24", "-farfield", "6", "-ranks", "1",
		"-h0", "0.08", "-hmax", "2", "-bl-h0", "3e-3", "-bl-layers", "8",
	}
	return append(base, extra...)
}

func TestRunASCII(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), fastArgs(), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no mesh written")
	}
	if !strings.Contains(errb.String(), "triangles") {
		t.Errorf("stats missing: %q", errb.String())
	}
}

func TestRunQuietSuppressesStats(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), fastArgs("-q"), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if errb.Len() != 0 {
		t.Errorf("quiet mode still wrote stats: %q", errb.String())
	}
}

func TestRunVTKAndBinary(t *testing.T) {
	for _, format := range []string{"vtk", "binary"} {
		var out, errb bytes.Buffer
		if err := run(context.Background(), fastArgs("-q", "-format", format), &out, &errb); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s: empty output", format)
		}
	}
}

func TestRunPolyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	poly := filepath.Join(dir, "g.poly")
	mesh1 := filepath.Join(dir, "m1.txt")
	var out, errb bytes.Buffer
	if err := run(context.Background(), fastArgs("-q", "-write-poly", poly, "-o", mesh1), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(poly); err != nil {
		t.Fatal(err)
	}
	// Regenerate from the exported geometry.
	mesh2 := filepath.Join(dir, "m2.txt")
	if err := run(context.Background(), fastArgs("-q", "-input", poly, "-o", mesh2), &out, &errb); err != nil {
		t.Fatal(err)
	}
	s1, err := os.Stat(mesh1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := os.Stat(mesh2)
	if err != nil {
		t.Fatal(err)
	}
	// The same geometry should produce meshes of very similar size.
	ratio := float64(s2.Size()) / float64(s1.Size())
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("poly round trip produced divergent meshes: %d vs %d bytes", s1.Size(), s2.Size())
	}
}

// TestRunAudit: an audited generation passes on real output and reports
// the audit in the stats footer.
func TestRunAudit(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), fastArgs("-audit"), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no mesh written")
	}
	if !strings.Contains(errb.String(), "audit") {
		t.Errorf("stats missing the audit line: %q", errb.String())
	}
}

func TestRunFrontKernel(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), fastArgs("-q", "-kernel", "front"), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no mesh written")
	}
}

// TestRunTraceAndMetrics: -trace and -metrics write validating files, and
// the trace has one process track per rank plus the root pipeline track.
func TestRunTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	var out, errb bytes.Buffer
	args := fastArgs("-q", "-ranks", "2", "-audit",
		"-trace", tracePath, "-metrics", metricsPath)
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	events, err := trace.ValidateTrace(tf)
	if err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	if events == 0 {
		t.Fatal("trace file has no events")
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tj struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			PID float64 `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tj); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	for _, e := range tj.TraceEvents {
		if e.Ph == "X" || e.Ph == "i" {
			pids[e.PID] = true
		}
	}
	for pid := 0; pid <= 2; pid++ { // root track + one per rank at -ranks 2
		if !pids[float64(pid)] {
			t.Errorf("no events on process track %d", pid)
		}
	}

	mf, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if err := trace.ValidateMetrics(mf); err != nil {
		t.Fatalf("metrics file invalid: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-geometry", "bogus"}, &out, &errb); err == nil {
		t.Error("bogus geometry must fail")
	}
	if err := run(context.Background(), fastArgs("-format", "bogus"), &out, &errb); err == nil {
		t.Error("bogus format must fail")
	}
	if err := run(context.Background(), fastArgs("-kernel", "bogus"), &out, &errb); err == nil {
		t.Error("bogus kernel must fail")
	}
	if err := run(context.Background(), []string{"-input", "/nonexistent/file.poly"}, &out, &errb); err == nil {
		t.Error("missing input file must fail")
	}
	if err := run(context.Background(), []string{"-bad-flag"}, &out, &errb); err == nil {
		t.Error("unknown flag must fail")
	}
}

// A -timeout too short for any real work must abort the pipeline cleanly:
// no mesh output, and the error names the interrupted stage.
func TestRunTimeout(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), fastArgs("-q", "-timeout", "1ns"), &out, &errb)
	if err == nil {
		t.Fatal("a 1ns timeout must abort the run")
	}
	var pe *core.PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("timeout error is %T (%v), want *core.PhaseError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error does not wrap context.DeadlineExceeded: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("aborted run still wrote %d bytes of mesh", out.Len())
	}
}

// An already-canceled parent context (the Ctrl-C path) aborts the same way.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	err := run(ctx, fastArgs("-q"), &out, &errb)
	if err == nil {
		t.Fatal("a canceled context must abort the run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
}

func TestRunAdaptCycles(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "adapted.txt")
	var stdout, errb bytes.Buffer
	err := run(context.Background(),
		fastArgs("-adapt-cycles", "1", "-adapt-metric", "uniform:h=0.3", "-o", out),
		&stdout, &errb)
	if err != nil {
		t.Fatalf("adapt run: %v\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "adapt 0") {
		t.Errorf("stats missing adapt cycle line:\n%s", errb.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := mesh.ReadASCII(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep := audit.Run(&audit.Snapshot{Mesh: m}, audit.Adapted()); !rep.Ok() {
		t.Errorf("adapted mesh fails audit: %+v", rep.Violations)
	}
}

// TestRunAdaptWorkersFollowRanks: meshgen's adaptation step takes the
// run's rank count as its worker count, and the worker count must never
// change the result. Generation itself differs per rank count, so each
// rank count's -adapt-cycles output is compared against a one-worker
// adaptation of that rank count's own generated mesh.
func TestRunAdaptWorkersFollowRanks(t *testing.T) {
	const spec = "bl:x0=0,y0=0,x1=1,y1=0,hn=0.02,ht=0.3,grow=0.6"
	for _, ranks := range []string{"1", "4"} {
		var base, adapted, errb bytes.Buffer
		if err := run(context.Background(), fastArgs("-q", "-ranks", ranks), &base, &errb); err != nil {
			t.Fatalf("ranks %s: generate: %v", ranks, err)
		}
		if err := run(context.Background(),
			fastArgs("-q", "-ranks", ranks, "-adapt-cycles", "1", "-adapt-metric", spec),
			&adapted, &errb); err != nil {
			t.Fatalf("ranks %s: generate and adapt: %v\n%s", ranks, err, errb.String())
		}
		if bytes.Equal(adapted.Bytes(), base.Bytes()) {
			t.Fatalf("ranks %s: adaptation left the mesh unchanged", ranks)
		}
		m, err := mesh.ReadASCII(&base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Ranks = 1
		cfg.Adapt = core.AdaptParams{Cycles: 1, Metric: spec}
		seq, err := runAdapt(cfg, m, false, nil, &errb, true)
		if err != nil {
			t.Fatalf("ranks %s: one-worker adaptation: %v", ranks, err)
		}
		var want bytes.Buffer
		if err := seq.WriteASCII(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(adapted.Bytes(), want.Bytes()) {
			t.Errorf("ranks %s: -adapt-cycles mesh differs from the one-worker adaptation", ranks)
		}
	}
}

func TestRunAdaptIso(t *testing.T) {
	var stdout, errb bytes.Buffer
	err := run(context.Background(),
		fastArgs("-adapt-cycles", "1", "-adapt-iso"),
		&stdout, &errb)
	if err != nil {
		t.Fatalf("adapt-iso run: %v\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "adapt-iso 0") || !strings.Contains(errb.String(), "adapt-iso 1") {
		t.Errorf("stats missing adapt-iso cycle lines:\n%s", errb.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("no mesh written")
	}
}
