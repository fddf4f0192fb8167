package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBaselineFromAnotherHostIsIncomparable(t *testing.T) {
	cur := report{
		Workload: "lattice-1k",
		Host:     hostStamp{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, LLC: "L3 32M", GoVersion: "go1.24.0"},
		Result:   result{Metrics: map[string]metric{"p50_ms": {Value: 10, Unit: "ms"}}},
	}
	base := cur
	base.Result = result{Metrics: map[string]metric{"p50_ms": {Value: 8, Unit: "ms"}}}
	path := filepath.Join(t.TempDir(), "base.json")
	write := func(r report) {
		b, _ := json.Marshal(r)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write(base)
	var out bytes.Buffer
	if err := compareBaseline(&out, path, cur); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "+25.0%") {
		t.Fatalf("same host should print the delta, got:\n%s", out.String())
	}

	base.Host.NProc = 8
	write(base)
	out.Reset()
	if err := compareBaseline(&out, path, cur); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "INCOMPARABLE") || strings.Contains(out.String(), "%") {
		t.Fatalf("different host must print as incomparable, got:\n%s", out.String())
	}
}
