package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/core"
	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

// soloMesh renders the meshgen-equivalent single-run output for the named
// airfoil at resolution n: the byte-identity reference for served meshes.
func soloMesh(t *testing.T, n, ranks int, audit bool) []byte {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Geometry = airfoil.Single(airfoil.NACA0012, n, 30)
	cfg.Ranks = ranks
	cfg.Audit = audit
	res, err := core.Generate(cfg)
	if err != nil {
		t.Fatalf("solo generate n=%d: %v", n, err)
	}
	var buf bytes.Buffer
	if err := res.Mesh.WriteASCII(&buf); err != nil {
		t.Fatalf("write solo mesh: %v", err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, ec core.EngineConfig, opts serverOptions) (*httptest.Server, *core.Engine) {
	t.Helper()
	eng, err := core.NewEngine(ec)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ts := httptest.NewServer(newServer(eng, opts))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, eng
}

func postMesh(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/mesh", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /mesh: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// TestServeConcurrentAuditedCached is the PR's acceptance test: two
// concurrent audited requests against one meshd process complete with
// meshes byte-identical to single-run output, and a repeated identical
// request is served from the geometry-keyed cache, visible both in the
// X-Cache header and the /metrics cache-hit counter.
func TestServeConcurrentAuditedCached(t *testing.T) {
	ts, _ := newTestServer(t,
		core.EngineConfig{Ranks: 2, MaxConcurrent: 4},
		serverOptions{})

	ns := []int{20, 24}
	want := make(map[int][]byte)
	for _, n := range ns {
		want[n] = soloMesh(t, n, 2, true)
	}

	// Two different geometries meshed concurrently on the shared engine.
	var wg sync.WaitGroup
	got := make(map[int][]byte)
	status := make(map[int]int)
	var mu sync.Mutex
	for _, n := range ns {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			resp, body := postMesh(t, ts.URL,
				fmt.Sprintf(`{"geometry":"naca0012","n":%d,"params":{"audit":true}}`, n))
			mu.Lock()
			got[n] = body
			status[n] = resp.StatusCode
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	for _, n := range ns {
		if status[n] != http.StatusOK {
			t.Fatalf("n=%d: status %d: %s", n, status[n], got[n])
		}
		if !bytes.Equal(got[n], want[n]) {
			t.Errorf("n=%d: served mesh differs from single-run output (%d vs %d bytes)",
				n, len(got[n]), len(want[n]))
		}
	}

	// The repeat must come from the cache, byte-identical again.
	resp, body := postMesh(t, ts.URL, `{"geometry":"naca0012","n":20,"params":{"audit":true}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", resp.StatusCode, body)
	}
	if hdr := resp.Header.Get("X-Cache"); hdr != "hit" {
		t.Errorf("repeat request X-Cache = %q, want \"hit\"", hdr)
	}
	if !bytes.Equal(body, want[20]) {
		t.Errorf("cached mesh differs from single-run output")
	}

	// And the hit shows up in the /metrics counters (JSON view).
	mj := metricsJSON(t, ts.URL)
	if mj.Counters["server.cache.hits"] < 1 {
		t.Errorf("server.cache.hits = %d, want >= 1", mj.Counters["server.cache.hits"])
	}
	if mj.Counters["server.cache.misses"] != 2 {
		t.Errorf("server.cache.misses = %d, want 2", mj.Counters["server.cache.misses"])
	}
	if mj.Counters["engine.runs"] != 2 {
		t.Errorf("engine.runs = %d, want 2 (cache hit must not re-run)", mj.Counters["engine.runs"])
	}
}

// metricsJSON fetches the JSON view of /metrics via content negotiation.
func metricsJSON(t *testing.T, baseURL string) trace.MetricsJSON {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics with Accept: application/json returned Content-Type %q", ct)
	}
	var mj trace.MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&mj); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return mj
}

// TestServeMetricsPrometheus: the default /metrics view is Prometheus
// text exposition that passes the structural linter, with the registry's
// counters present under the pamg2d_ namespace; ?format=json still
// selects the JSON document.
func TestServeMetricsPrometheus(t *testing.T) {
	ts, _ := newTestServer(t, core.EngineConfig{Ranks: 1}, serverOptions{})
	if resp, _ := postMesh(t, ts.URL, `{"geometry":"naca0012","n":16}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("mesh request: status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != trace.PromContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, trace.PromContentType)
	}
	samples, err := trace.ValidatePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("prometheus lint: %v\n%s", err, body)
	}
	if samples == 0 {
		t.Fatal("prometheus export has no samples")
	}
	for _, want := range []string{"pamg2d_server_requests_total", "pamg2d_engine_runs_total", "pamg2d_server_request_seconds_bucket"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("prometheus export lacks %s:\n%s", want, body)
		}
	}

	jresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var mj trace.MetricsJSON
	if err := json.NewDecoder(jresp.Body).Decode(&mj); err != nil {
		t.Fatalf("?format=json not a JSON registry: %v", err)
	}
	if mj.Counters["server.requests"] < 1 {
		t.Errorf("JSON view server.requests = %d, want >= 1", mj.Counters["server.requests"])
	}
}

// TestServeReadyz: /readyz answers ready while serving and flips to 503
// draining after setReady(false), while /healthz stays 200 throughout.
func TestServeReadyz(t *testing.T) {
	eng, err := core.NewEngine(core.EngineConfig{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, serverOptions{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	check := func(wantStatus int, wantState string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("/readyz status = %d, want %d", resp.StatusCode, wantStatus)
		}
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode readyz: %v", err)
		}
		if body.Status != wantState {
			t.Errorf("/readyz state = %q, want %q", body.Status, wantState)
		}
	}
	check(http.StatusOK, "ready")
	srv.setReady(false)
	check(http.StatusServiceUnavailable, "draining")

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain: status %d, want 200", hresp.StatusCode)
	}
}

// TestServePprofGating: the profiling endpoints exist only with
// EnablePprof — a default server must not expose runtime internals.
func TestServePprofGating(t *testing.T) {
	off, _ := newTestServer(t, core.EngineConfig{Ranks: 1}, serverOptions{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof: status %d, want 404", resp.StatusCode)
	}

	on, _ := newTestServer(t, core.EngineConfig{Ranks: 1}, serverOptions{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -pprof: status %d, want 200", resp.StatusCode)
	}
}

// TestServePanicRecovery: a panicking handler becomes a 500 with a JSON
// error body naming the request ID, a structured log record carrying the
// same ID, and a bump of the server.panics counter — never a dropped
// connection.
func TestServePanicRecovery(t *testing.T) {
	eng, err := core.NewEngine(core.EngineConfig{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	var logbuf bytes.Buffer
	var logmu sync.Mutex
	logw := writerFunc(func(p []byte) (int, error) {
		logmu.Lock()
		defer logmu.Unlock()
		return logbuf.Write(p)
	})
	srv := newServer(eng, serverOptions{Logger: slog.New(slog.NewJSONHandler(logw, nil))})
	srv.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("injected handler panic")
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("GET /boom: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("no X-Request-Id on panicking request")
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], reqID) {
		t.Errorf("error body %q does not name request %s", body, reqID)
	}

	logmu.Lock()
	logged := logbuf.String()
	logmu.Unlock()
	if !strings.Contains(logged, "handler panic") || !strings.Contains(logged, reqID) ||
		!strings.Contains(logged, "injected handler panic") {
		t.Errorf("panic log record missing fields: %s", logged)
	}

	if mj := metricsJSON(t, ts.URL); mj.Counters["server.panics"] != 1 {
		t.Errorf("server.panics = %d, want 1", mj.Counters["server.panics"])
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestServeTraceExport: a request with "trace": true deposits a Chrome
// trace export retrievable at /trace/{id}.
func TestServeTraceExport(t *testing.T) {
	ts, _ := newTestServer(t, core.EngineConfig{Ranks: 1}, serverOptions{})
	resp, body := postMesh(t, ts.URL, `{"geometry":"naca0012","n":16,"params":{"trace":true}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatalf("no X-Trace-Id header on traced request")
	}
	tresp, err := http.Get(ts.URL + "/trace/" + id)
	if err != nil {
		t.Fatalf("GET /trace/%s: %v", id, err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/%s: status %d", id, tresp.StatusCode)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&tf); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Errorf("trace export has no events")
	}
}

// TestServeBadRequests: malformed inputs come back as 400s with JSON
// error bodies, not 500s or hangs.
func TestServeBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, core.EngineConfig{Ranks: 1}, serverOptions{})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown geometry", `{"geometry":"b747"}`},
		{"unknown kernel", `{"geometry":"naca0012","params":{"kernel":"voronoi"}}`},
		{"unknown format", `{"geometry":"naca0012","params":{"format":"stl"}}`},
		{"bad poly", `{"poly":"not a poly file"}`},
	}
	for _, c := range cases {
		resp, body := postMesh(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %q is not {\"error\": ...}", c.name, body)
		}
	}
	if resp, _ := postMesh(t, ts.URL, ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/mesh")
	if err != nil {
		t.Fatalf("GET /mesh: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /mesh: status %d, want 405", resp.StatusCode)
	}
}

// TestServeHealthz sanity-checks the liveness endpoint.
func TestServeHealthz(t *testing.T) {
	ts, eng := newTestServer(t, core.EngineConfig{Ranks: 3}, serverOptions{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Ranks  int    `json:"ranks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Status != "ok" || h.Ranks != eng.Ranks() {
		t.Errorf("healthz = %+v, want ok with %d ranks", h, eng.Ranks())
	}
}

// TestCacheKeyEquivalence: omitted parameters and their explicit defaults
// must share one cache slot, and a parameter that changes the mesh must
// not.
func TestCacheKeyEquivalence(t *testing.T) {
	ts, _ := newTestServer(t, core.EngineConfig{Ranks: 1}, serverOptions{})
	resp1, _ := postMesh(t, ts.URL, `{"geometry":"naca0012","n":16}`)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first: status %d cache %q", resp1.StatusCode, resp1.Header.Get("X-Cache"))
	}
	// Explicit defaults == omitted defaults.
	resp2, _ := postMesh(t, ts.URL,
		`{"geometry":"naca0012","n":16,"params":{"h0":0.02,"gradation":0.15,"hmax":4.0,"kernel":"ruppert","format":"ascii"}}`)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("explicit defaults: X-Cache %q, want hit", resp2.Header.Get("X-Cache"))
	}
	// A different sizing is a different mesh.
	resp3, _ := postMesh(t, ts.URL, `{"geometry":"naca0012","n":16,"params":{"h0":0.05}}`)
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Errorf("changed h0: X-Cache %q, want miss", resp3.Header.Get("X-Cache"))
	}
}

// TestRunStatusMapping pins the engine-error → HTTP-status contract,
// including the resilience cases: a quorum loss (rank-death error
// anywhere in the chain, as core wraps it in a PhaseError) is a 503 with
// a retry hint, never a 500.
func TestRunStatusMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		audit      bool
		status     int
		quorum     bool
		retryAfter string
	}{
		{name: "busy", err: core.ErrEngineBusy, status: http.StatusServiceUnavailable, retryAfter: "1"},
		{name: "closed", err: core.ErrEngineClosed, status: http.StatusServiceUnavailable},
		{
			name: "quorum loss",
			err: &core.PhaseError{Stage: "inviscid", Rank: -1,
				Err: fmt.Errorf("world closed: %w", &mpi.RankDeadError{Rank: 0, Err: errors.New("connection reset")})},
			status: http.StatusServiceUnavailable, quorum: true, retryAfter: "5",
		},
		{name: "deadline", err: fmt.Errorf("run: %w", context.DeadlineExceeded), status: http.StatusGatewayTimeout},
		{name: "canceled", err: context.Canceled, status: 499},
		{name: "audit", err: errors.New("audit: 2 finding(s)"), audit: true, status: http.StatusUnprocessableEntity},
		{name: "audit without flag", err: errors.New("audit: 2 finding(s)"), status: http.StatusInternalServerError},
		{name: "other", err: errors.New("boom"), status: http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hdr := make(http.Header)
			status, quorum := runStatus(hdr, tc.err, tc.audit)
			if status != tc.status {
				t.Errorf("status = %d, want %d", status, tc.status)
			}
			if quorum != tc.quorum {
				t.Errorf("quorum = %v, want %v", quorum, tc.quorum)
			}
			if got := hdr.Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After = %q, want %q", got, tc.retryAfter)
			}
		})
	}
}
