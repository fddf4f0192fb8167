package bfs

import (
	"context"
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
)

// benchRMAT and firstUsableB are the testing.TB forms of testRMAT and
// firstUsable, usable from benchmarks.
func benchRMAT(tb testing.TB, scale, ef int, seed uint64) *graph.CSR {
	tb.Helper()
	p := rmat.DefaultParams(scale, ef)
	p.Seed = seed
	g, err := rmat.Generate(p)
	if err != nil {
		tb.Fatalf("rmat.Generate: %v", err)
	}
	return g
}

func firstUsableB(tb testing.TB, g *graph.CSR) int32 {
	tb.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			return int32(v)
		}
	}
	tb.Fatal("graph has no non-isolated vertex")
	return 0
}

// TestRunAllocsNopRecorder extends the steady-state allocation gate to
// the telemetry seam: threading an explicit obs.Nop recorder through
// RunWithContext must stay as alloc-free as passing no recorder at
// all. This is the contract OBSERVABILITY.md promises — the default
// path pays for observability only when a live recorder is attached.
func TestRunAllocsNopRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on a scale-12 graph")
	}
	g := testRMAT(t, 12, 8, 7)
	src := firstUsable(t, g)
	opts := Options{Policy: MN{M: 64, N: 64}, Workers: 1, Recorder: obs.Nop, Label: "gate"}
	ws := NewWorkspace(g.NumVertices())
	ctx := context.Background()
	run := func() {
		if _, err := RunWithContext(ctx, g, src, opts, ws); err != nil {
			t.Fatal(err)
		}
	}
	run() // warmup: grow queues and shards to this graph's working set
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs > 4 {
		t.Errorf("traversal with Nop recorder allocates %.0f objects/run after warmup; want ~0", allocs)
	}
}

// countRecorder counts events without retaining them, so benchmarks
// measure the emission path rather than slice growth.
type countRecorder struct{ n int64 }

func (c *countRecorder) Event(obs.Event) { c.n++ }

// levelRecorder keeps a traversal's level events.
type levelRecorder struct{ levels []obs.Event }

func (l *levelRecorder) Event(e obs.Event) {
	if e.Kind == obs.KindLevel {
		l.levels = append(l.levels, e)
	}
}

// fanned counts the levels that ran on more than one worker.
func (l *levelRecorder) fanned() int {
	n := 0
	for _, e := range l.levels {
		if e.Workers > 1 {
			n++
		}
	}
	return n
}

// TestLevelEventsReportFanOut checks that level events report the
// fan-out the kernels ran, threshold included: every level of a small
// lattice is below minFanGrains and reports one grain on one worker
// even at Workers: 2, while a bottom-up level of a scale-16 R-MAT
// (16 grains of buGrain vertices) reports its grains on the full team.
func TestLevelEventsReportFanOut(t *testing.T) {
	const workers = 2
	lattice, err := graph.Lattice(64)
	if err != nil {
		t.Fatal(err)
	}
	var small levelRecorder
	if _, err := RunWith(lattice, 0, Options{Policy: MN{M: 64, N: 64}, Workers: workers, Recorder: &small}, nil); err != nil {
		t.Fatal(err)
	}
	if len(small.levels) < 100 {
		t.Fatalf("lattice traversal emitted %d level events, want one per level (126)", len(small.levels))
	}
	for _, e := range small.levels {
		if e.Workers != 1 || e.Grains != 1 {
			t.Fatalf("lattice step %d (%d frontier vertices): Workers %d, Grains %d; want 1, 1 below the threshold",
				e.Step, e.FrontierVertices, e.Workers, e.Grains)
		}
	}

	g := testRMAT(t, 16, 8, 7)
	var big levelRecorder
	if _, err := RunWith(g, firstUsable(t, g), Options{Policy: MN{M: 64, N: 64}, Workers: workers, Recorder: &big}, nil); err != nil {
		t.Fatal(err)
	}
	bottomUp := 0
	for _, e := range big.levels {
		if e.Dir != obs.BottomUp {
			continue
		}
		bottomUp++
		wantGrains := int64((g.NumVertices() + buGrain - 1) / buGrain)
		if e.Workers != workers || e.Grains != wantGrains {
			t.Errorf("R-MAT bottom-up step %d: Workers %d, Grains %d; want the team width %d over %d grains",
				e.Step, e.Workers, e.Grains, workers, wantGrains)
		}
	}
	if bottomUp == 0 {
		t.Fatal("R-MAT traversal ran no bottom-up level")
	}
}

// BenchmarkRunNopRecorder and BenchmarkRunLiveRecorder bracket the
// cost of the telemetry seam on a pooled hybrid traversal: the Nop
// variant must report 0 allocs/op, and the live variant shows what a
// minimal recorder costs (event construction + interface call per
// level, plus the re-enabled |E|cq pass).
func BenchmarkRunNopRecorder(b *testing.B)  { benchRecorder(b, obs.Nop) }
func BenchmarkRunLiveRecorder(b *testing.B) { benchRecorder(b, &countRecorder{}) }

func benchRecorder(b *testing.B, rec obs.Recorder) {
	g := benchRMAT(b, 14, 8, 7)
	src := firstUsableB(b, g)
	opts := Options{Policy: MN{M: 64, N: 64}, Workers: 1, Recorder: rec, Label: "bench"}
	ws := NewWorkspace(g.NumVertices())
	ctx := context.Background()
	// Warmup grows the workspace queues to this graph's working set so
	// allocs/op reflects steady state, not first-run growth.
	if _, err := RunWithContext(ctx, g, src, opts, ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWithContext(ctx, g, src, opts, ws); err != nil {
			b.Fatal(err)
		}
	}
}
