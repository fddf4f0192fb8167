package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crossbfs/internal/rmat"
	"crossbfs/internal/serve"
)

// startTestDaemon serves a small R-MAT graph over httptest and returns
// the host:port bfsload flags expect.
func startTestDaemon(t *testing.T, cfg serve.Config) string {
	t.Helper()
	p := rmat.DefaultParams(10, 8)
	p.Seed = 7
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatalf("generating graph: %v", err)
	}
	s := serve.NewServer(cfg)
	if err := s.AddGraph("g", "rmat:10:8:7", g); err != nil {
		t.Fatalf("AddGraph: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"defaults", nil, true},
		{"explicit mix", []string{"-mix", "oltp"}, true},
		{"bad mix", []string{"-mix", "htap"}, false},
		{"zero qps", []string{"-qps", "0"}, false},
		{"zipf at 1", []string{"-zipf", "1.0"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args, os.Stderr)
			if tc.ok != (err == nil) {
				t.Fatalf("parseFlags(%v): err = %v, want ok=%v", tc.args, err, tc.ok)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	lat := make([]int64, 1000)
	for i := range lat {
		lat[i] = int64(i)
	}
	if q := quantile(lat, 0.50); q != 500 {
		t.Errorf("p50 = %d, want 500", q)
	}
	if q := quantile(lat, 0.999); q != 999 {
		t.Errorf("p999 = %d, want 999", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
}

func TestWorkloadMix(t *testing.T) {
	cfg := &config{mix: "mixed", zipfS: 1.2, seed: 3, khop: 2, multi: 4}
	w := newWorkload(cfg, 1024)
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		class, body := w.next()
		counts[class]++
		if !json.Valid([]byte(body)) {
			t.Fatalf("workload emitted invalid JSON: %s", body)
		}
	}
	if counts[classOLTP] == 0 || counts[classOLAP] == 0 {
		t.Fatalf("mixed workload skipped a class: %+v", counts)
	}
	if counts[classOLAP] > counts[classOLTP] {
		t.Errorf("mixed workload is OLAP-heavy: %+v", counts)
	}

	olap := newWorkload(&config{mix: "olap", zipfS: 1.2, seed: 3, khop: 2, multi: 4}, 1024)
	for i := 0; i < 50; i++ {
		if class, _ := olap.next(); class != classOLAP {
			t.Fatalf("olap mix emitted %s", class)
		}
	}
}

func TestWorkloadDeadlinePropagates(t *testing.T) {
	cfg := &config{mix: "oltp", zipfS: 1.2, seed: 3, deadlineMS: 250}
	w := newWorkload(cfg, 64)
	_, body := w.next()
	if !strings.Contains(body, `"deadline_ms": 250`) {
		t.Errorf("deadline missing from body: %s", body)
	}
}

// TestRunEndToEnd drives a short mixed run against an in-process
// daemon and checks the report and every output artifact.
func TestRunEndToEnd(t *testing.T) {
	addr := startTestDaemon(t, serve.Config{SampleK: 1, DefaultDeadline: 5 * time.Second})
	dir := t.TempDir()
	out := filepath.Join(dir, "load.json")
	metrics := filepath.Join(dir, "metrics.txt")
	flight := filepath.Join(dir, "flight.json")

	cfg, err := parseFlags([]string{
		"-addr", addr,
		"-qps", "400",
		"-duration", "500ms",
		"-mix", "mixed",
		"-seed", "11",
		"-out", out,
		"-scrape-metrics", metrics,
		"-flight-out", flight,
	}, os.Stderr)
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	var stdout bytes.Buffer
	if err := run(context.Background(), cfg, &stdout, os.Stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "qps sustained") {
		t.Errorf("stdout misses the summary line:\n%s", stdout.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading report: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Schema != LoadSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, LoadSchema)
	}
	if rep.Total.OK == 0 || rep.Total.P50US <= 0 || rep.Total.AchvdQPS <= 0 {
		t.Errorf("report totals implausible: %+v", rep.Total)
	}
	if rep.Total.P999US < rep.Total.P99US || rep.Total.P99US < rep.Total.P50US {
		t.Errorf("quantiles out of order: %+v", rep.Total)
	}
	if _, ok := rep.Classes[classOLTP]; !ok {
		t.Error("report has no oltp class")
	}

	mtext, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("reading scraped metrics: %v", err)
	}
	if !bytes.Contains(mtext, []byte(`crossbfs_admission_outcomes_total{reason="ok"}`)) {
		t.Error("scraped metrics misses the admission outcomes")
	}

	// -scrape-metrics also reconstructs the server-side view from the
	// le-histogram: counts must match the client's OK tally exactly, and
	// the quantiles must be ordered and positive.
	srv, ok := rep.Server["total"]
	if !ok {
		t.Fatalf("report has no server-side total: %+v", rep.Server)
	}
	if srv.Count != rep.Total.OK {
		t.Errorf("server count %d != client OK %d", srv.Count, rep.Total.OK)
	}
	if srv.P50US <= 0 || srv.P99US < srv.P50US {
		t.Errorf("server quantiles implausible: %+v", srv)
	}
	if !strings.Contains(stdout.String(), "server-side") {
		t.Errorf("stdout misses the server-side block:\n%s", stdout.String())
	}
	ftext, err := os.ReadFile(flight)
	if err != nil {
		t.Fatalf("reading flight dump: %v", err)
	}
	if !bytes.Contains(ftext, []byte("traceEvents")) {
		t.Error("flight dump is not a trace file")
	}
}

// TestRunCountsRejections pins that 429s land in the rejected column,
// not in errors, when the daemon is sized to shed load.
func TestRunCountsRejections(t *testing.T) {
	addr := startTestDaemon(t, serve.Config{
		MaxConcurrent: 1, QueueDepth: -1, DefaultDeadline: 5 * time.Second,
	})
	cfg, err := parseFlags([]string{
		"-addr", addr,
		"-qps", "800",
		"-duration", "300ms",
		"-mix", "olap",
		"-seed", "5",
	}, os.Stderr)
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	var stdout bytes.Buffer
	// Rejections are expected; the run only fails if nothing succeeds.
	_ = run(context.Background(), cfg, &stdout, os.Stderr)
	if !strings.Contains(stdout.String(), "429=") {
		t.Errorf("summary misses the 429 column:\n%s", stdout.String())
	}
}

func TestRunUnreachableServer(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:1", "-qps", "10", "-duration", "100ms"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run(context.Background(), cfg, &stdout, os.Stderr); err == nil {
		t.Error("run against a dead server succeeded")
	}
}

func TestRealMainBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-mix", "bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("realMain = %d, want 2", code)
	}
}

// TestServerQuantiles pins the exposition → quantile reconstruction on
// a hand-written page: 3 observations at ≤1ms and 1 at ≤1s for oltp.
func TestServerQuantiles(t *testing.T) {
	page := `# HELP crossbfs_query_latency_seconds Query service time.
# TYPE crossbfs_query_latency_seconds histogram
crossbfs_query_latency_seconds_bucket{class="oltp",kind="reach",le="0.001"} 3
crossbfs_query_latency_seconds_bucket{class="oltp",kind="reach",le="1"} 4
crossbfs_query_latency_seconds_bucket{class="oltp",kind="reach",le="+Inf"} 4
crossbfs_query_latency_seconds_sum{class="oltp",kind="reach"} 1.003
crossbfs_query_latency_seconds_count{class="oltp",kind="reach"} 4
`
	srv, err := serverQuantiles(strings.NewReader(page))
	if err != nil {
		t.Fatalf("serverQuantiles: %v", err)
	}
	oltp, ok := srv[classOLTP]
	if !ok {
		t.Fatalf("no oltp entry: %+v", srv)
	}
	if oltp.Count != 4 || oltp.P50US != 1000 || oltp.P99US != 1000000 {
		t.Errorf("oltp = %+v, want count 4, p50 1000µs, p99 1000000µs", oltp)
	}
	total := srv["total"]
	if total.Count != 4 {
		t.Errorf("total count = %d, want 4", total.Count)
	}
	if _, ok := srv[classOLAP]; ok {
		t.Error("olap entry with no olap traffic")
	}
}

// TestServerQuantilesMissingFamily pins the error path: a page without
// the latency histogram family must not crash the report.
func TestServerQuantilesMissingFamily(t *testing.T) {
	page := "# HELP crossbfs_admission_outcomes_total Outcomes.\n# TYPE crossbfs_admission_outcomes_total counter\n" +
		"crossbfs_admission_outcomes_total{reason=\"ok\"} 7\n"
	if _, err := serverQuantiles(strings.NewReader(page)); err == nil {
		t.Error("page without the latency family accepted")
	}
}
