package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"one rmat graph", []string{"-graph", "g=rmat:10:8"}, true},
		{"two graphs", []string{"-graph", "a=rmat:10:8", "-graph", "b=x.csr"}, true},
		{"no graphs", []string{"-listen", ":0"}, false},
		{"malformed graph", []string{"-graph", "nospec"}, false},
		{"empty name", []string{"-graph", "=rmat:10:8"}, false},
		{"slo objective", []string{"-graph", "g=rmat:10:8", "-slo", "oltp p99 < 2ms over 5m", "-slo", "error ratio < 1% over 10m"}, true},
		{"malformed slo", []string{"-graph", "g=rmat:10:8", "-slo", "p99 fast please"}, false},
		{"unknown slo selector", []string{"-graph", "g=rmat:10:8", "-slo", "backend p99 < 2ms over 5m"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args, os.Stderr)
			if tc.ok && err != nil {
				t.Fatalf("parseFlags(%v): %v", tc.args, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("parseFlags(%v) accepted, want error (cfg %+v)", tc.args, cfg)
			}
		})
	}
}

func TestLoadGraph(t *testing.T) {
	t.Run("rmat", func(t *testing.T) {
		g, err := loadGraph("rmat:10:8:7")
		if err != nil {
			t.Fatalf("loadGraph: %v", err)
		}
		if g.NumVertices() != 1<<10 {
			t.Errorf("vertices = %d, want %d", g.NumVertices(), 1<<10)
		}
	})
	t.Run("rmat deterministic by seed", func(t *testing.T) {
		a, err := loadGraph("rmat:9:4:5")
		if err != nil {
			t.Fatal(err)
		}
		b, err := loadGraph("rmat:9:4:5")
		if err != nil {
			t.Fatal(err)
		}
		if a.NumEdges() != b.NumEdges() {
			t.Errorf("same spec, different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
		}
	})
	t.Run("edge list file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "tiny.txt")
		if err := os.WriteFile(path, []byte("0 1\n1 2\n2 3\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := loadGraph(path)
		if err != nil {
			t.Fatalf("loadGraph(%s): %v", path, err)
		}
		if g.NumVertices() != 4 {
			t.Errorf("vertices = %d, want 4", g.NumVertices())
		}
	})
	t.Run("bad specs", func(t *testing.T) {
		for _, spec := range []string{"rmat:", "rmat:x:8", "rmat:10:y", "rmat:10:8:z", "/does/not/exist.csr", "/does/not/exist.txt"} {
			if _, err := loadGraph(spec); err == nil {
				t.Errorf("loadGraph(%q) succeeded, want error", spec)
			}
		}
	})
}

// TestDaemonEndToEnd boots the daemon on a loopback :0 port, resolves
// the bound address through -addrfile, runs a query, and shuts down
// via context cancel — the same lifecycle scripts/serve-smoke.sh uses.
func TestDaemonEndToEnd(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "bfsd.addr")
	cfg, err := parseFlags([]string{
		"-graph", "g=rmat:10:8:7",
		"-listen", "127.0.0.1:0",
		"-addrfile", addrFile,
		"-sample", "1",
		"-slo", "oltp p99 < 100ms over 1m",
	}, os.Stderr)
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, os.Stderr) }()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(addrFile)
		if err == nil && len(data) > 0 {
			addr = strings.TrimSpace(string(data))
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before binding: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if addr == "" {
		cancel()
		t.Fatal("addrfile never appeared")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var h struct {
		Status string `json:"status"`
		Graphs int    `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Graphs != 1 {
		t.Fatalf("/healthz = %+v", h)
	}

	// The addrfile appears only after readiness is armed, so /readyz
	// must already be 200.
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz = %d after addrfile, want 200", resp.StatusCode)
	}

	// The -slo objective shows up on /debug/slo.
	resp, err = http.Get(base + "/debug/slo")
	if err != nil {
		t.Fatalf("GET /debug/slo: %v", err)
	}
	var slo struct {
		Objectives []struct {
			Objective string `json:"objective"`
		} `json:"objectives"`
	}
	sloBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(sloBody, &slo); err != nil {
		t.Fatalf("decoding /debug/slo: %v (%s)", err, sloBody)
	}
	if len(slo.Objectives) != 1 || slo.Objectives[0].Objective != "oltp p99 < 100ms over 1m" {
		t.Errorf("/debug/slo = %s", sloBody)
	}

	resp, err = http.Post(base+"/query", "application/json",
		strings.NewReader(`{"kind": "khop", "source": 1, "k": 2}`))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/query status %d: %s", resp.StatusCode, body)
	}
	var q struct {
		Kind    string `json:"kind"`
		WithinK int64  `json:"within_k"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("decoding /query: %v", err)
	}
	if q.Kind != "khop" {
		t.Errorf("kind = %q, want khop", q.Kind)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on clean shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestGraphSpecsString(t *testing.T) {
	var gs graphSpecs
	if err := gs.Set("a=rmat:10:8"); err != nil {
		t.Fatal(err)
	}
	if err := gs.Set("b=web.csr"); err != nil {
		t.Fatal(err)
	}
	if got := gs.String(); got != "a=rmat:10:8,b=web.csr" {
		t.Errorf("String() = %q", got)
	}
}

func TestRealMainBadFlags(t *testing.T) {
	if code := realMain([]string{"-graph", "broken"}, os.Stderr); code != 2 {
		t.Errorf("realMain with bad flags = %d, want 2", code)
	}
	if code := realMain([]string{"-graph", "g=rmat:10:8", "-listen", "256.0.0.1:-1"}, os.Stderr); code != 1 {
		t.Errorf("realMain with bad listen = %d, want 1", code)
	}
}

func TestLoadGraphRejectsEmptyRMATFields(t *testing.T) {
	if _, err := loadGraph(fmt.Sprintf("rmat:%d:8", -1)); err == nil {
		t.Error("negative scale accepted")
	}
}

// TestSlowClientDisconnected pins the slow-header defence: a client
// that stalls mid-header is cut off once readHeaderTimeout passes, and
// the connection's goroutine exits with it.
func TestSlowClientDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}), 0)
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-done
	}()
	base := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: bfsd\r\nX-Stalled: "); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server answers nothing and closes: EOF, not our own deadline.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client not disconnected: %v", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout-100*time.Millisecond {
		t.Errorf("disconnected after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after disconnect, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
