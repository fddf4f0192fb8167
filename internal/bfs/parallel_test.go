package bfs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"crossbfs/internal/graph"
)

func TestResolveWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name                 string
		requested, workItems int
		want                 int
	}{
		{"zero means automatic", 0, 1 << 20, maxprocs},
		{"negative means automatic", -3, 1 << 20, maxprocs},
		{"explicit request honored", 3, 1 << 20, 3},
		{"capped by work items", 8, 2, 2},
		{"no work still yields one worker", 4, 0, 1},
		{"negative work still yields one worker", 4, -1, 1},
		{"automatic capped by work items", 0, 1, 1},
		{"single item single worker", 1, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := resolveWorkers(tc.requested, tc.workItems); got != tc.want {
				t.Errorf("resolveWorkers(%d, %d) = %d, want %d",
					tc.requested, tc.workItems, got, tc.want)
			}
		})
	}
}

func TestFanOut(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name                string
		n, grain, requested int
		grains, workers     int
	}{
		{"empty level", 0, tdGrain, 4, 1, 1},
		{"one grain short of the threshold", (minFanGrains - 1) * tdGrain, tdGrain, 4, 1, 1},
		{"partial last grain reaches the threshold", (minFanGrains-1)*tdGrain + 1, tdGrain, 4, minFanGrains, 4},
		{"at the threshold", minFanGrains * buGrain, buGrain, 2, minFanGrains, 2},
		{"one requested worker stays serial", 1 << 20, tdGrain, 1, 1, 1},
		{"automatic workers", 1 << 20, tdGrain, 0, 1 << 12, maxprocs},
		{"workers capped by grains", minFanGrains * epGrain, epGrain, 64, minFanGrains, minFanGrains},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			grains, workers := fanOut(tc.n, tc.grain, tc.requested)
			want := tc.workers
			if tc.requested == 0 && maxprocs == 1 {
				grains, want = 1, 1 // automatic on one core never fans out
				if workers != 1 {
					t.Fatalf("fanOut(%d, %d, 0) on one core = %d workers", tc.n, tc.grain, workers)
				}
				return
			}
			if grains != tc.grains || workers != want {
				t.Errorf("fanOut(%d, %d, %d) = (%d, %d), want (%d, %d)",
					tc.n, tc.grain, tc.requested, grains, workers, tc.grains, want)
			}
		})
	}
}

// coverageOf runs parallelGrains on tm and returns how many times each
// index in [0, n) was covered, plus the number of callback invocations.
func coverageOf(tm *team, n, grain, workers int) (counts []int32, calls int64) {
	counts = make([]int32, max(n, 0))
	var callCount atomic.Int64
	parallelGrains(context.Background(), tm, n, grain, workers, func(worker, start, end int) {
		callCount.Add(1)
		for i := start; i < end; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	return counts, callCount.Load()
}

// exactlyOnce fails unless every index was covered exactly once.
func exactlyOnce(t *testing.T, name string, counts []int32) {
	t.Helper()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("%s: index %d covered %d times, want exactly once", name, i, c)
		}
	}
}

func TestParallelGrainsEdgeCases(t *testing.T) {
	cases := []struct {
		name              string
		n, grain, workers int
	}{
		{"empty range", 0, 4, 4},
		{"negative range", -5, 4, 4},
		{"grain larger than n", 3, 100, 4},
		{"workers larger than n", 4, 1, 64},
		{"workers larger than grains", 64, 1, 100},
		{"grain zero normalized to one", 7, 0, 3},
		{"grain negative normalized to one", 70, -2, 3},
		{"single worker fast path", 100, 8, 1},
		{"automatic workers", 2570, 16, 0},
		{"uneven tail block", 100, 3, 2},
		{"n equals grain", 8, 8, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tm team
			defer tm.stop()
			counts, calls := coverageOf(&tm, tc.n, tc.grain, tc.workers)
			if tc.n <= 0 {
				if calls != 0 {
					t.Fatalf("fn called %d times on n=%d, want 0", calls, tc.n)
				}
				return
			}
			exactlyOnce(t, tc.name, counts)
		})
	}
}

func TestParallelGrainsSingleWorkerInOrder(t *testing.T) {
	// The single-worker fast path starts no helpers but still walks
	// the range grain by grain — each grain boundary is a cancellation
	// point — in ascending order on worker 0.
	var tm team
	var calls []([3]int)
	if err := parallelGrains(context.Background(), &tm, 50, 8, 1, func(worker, start, end int) {
		calls = append(calls, [3]int{worker, start, end})
	}); err != nil {
		t.Fatal(err)
	}
	if tm.helpers != 0 {
		t.Fatalf("single-worker path started %d helpers", tm.helpers)
	}
	want := [][3]int{{0, 0, 8}, {0, 8, 16}, {0, 16, 24}, {0, 24, 32}, {0, 32, 40}, {0, 40, 48}, {0, 48, 50}}
	if len(calls) != len(want) {
		t.Fatalf("single-worker calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call %d = %v, want %v", i, calls[i], want[i])
		}
	}
}

func TestParallelGrainsBelowThresholdRunsInline(t *testing.T) {
	// A level with fewer than minFanGrains grains runs on the caller
	// even when more workers are requested.
	var tm team
	var calls atomic.Int64
	if err := parallelGrains(context.Background(), &tm, (minFanGrains-1)*8, 8, 4, func(worker, _, _ int) {
		if worker != 0 {
			t.Errorf("grain ran on worker %d below the fan-out threshold", worker)
		}
		calls.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if tm.helpers != 0 || calls.Load() != minFanGrains-1 {
		t.Fatalf("helpers = %d, calls = %d; want 0 helpers and %d inline calls", tm.helpers, calls.Load(), minFanGrains-1)
	}
}

func TestParallelGrainsWorkerIDsInRange(t *testing.T) {
	// Worker IDs index per-worker shards in the kernels, so they must
	// stay within [0, effective workers) — also when the team kept more
	// helpers from a wider level.
	const n, grain = 1000, 7
	var tm team
	defer tm.stop()
	for _, workers := range []int{5, 3, 2, 5} {
		var bad atomic.Int32
		parallelGrains(context.Background(), &tm, n, grain, workers, func(worker, start, end int) {
			if worker < 0 || worker >= workers {
				bad.Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Errorf("workers=%d: %d callbacks saw an out-of-range worker ID", workers, bad.Load())
		}
	}
}

// TestParallelGrainsSharedCounterStress is the race-detector stress
// test: many workers hammering one shared atomic counter plus disjoint
// per-index writes. Under -race this exercises the claim loop
// (cursor.Add) and proves the grain ranges never overlap; without
// -race it still verifies the total.
func TestParallelGrainsSharedCounterStress(t *testing.T) {
	const n = 100000
	var tm team
	defer tm.stop()
	for _, workers := range []int{2, 4, 8, 0} {
		var shared atomic.Int64
		touched := make([]int32, n)
		var mu sync.Mutex
		order := 0
		parallelGrains(context.Background(), &tm, n, 64, workers, func(worker, start, end int) {
			shared.Add(int64(end - start))
			for i := start; i < end; i++ {
				touched[i]++ // safe without atomics iff grains are disjoint
			}
			mu.Lock()
			order++ // intentionally contended: stresses the detector
			mu.Unlock()
		})
		if shared.Load() != n {
			t.Errorf("workers=%d: shared counter %d, want %d", workers, shared.Load(), n)
		}
		for i, c := range touched {
			if c != 1 {
				t.Fatalf("workers=%d: index %d written %d times", workers, i, c)
			}
		}
	}
}

// TestTeamBackToBackDispatch runs 1,000 levels back to back on one
// team, varying size and width, the way a deep traversal does. Every
// level must cover its range exactly once, whether or not a helper
// woke in time for it.
func TestTeamBackToBackDispatch(t *testing.T) {
	base := runtime.NumGoroutine()
	var tm team
	for i := 0; i < 1000; i++ {
		n := minFanGrains*4 + i%97
		workers := 2 + i%3
		counts, _ := coverageOf(&tm, n, 4, workers)
		exactlyOnce(t, fmt.Sprintf("dispatch %d", i), counts)
	}
	if tm.helpers != 3 {
		t.Errorf("team holds %d helpers, want 3 (the widest level's)", tm.helpers)
	}
	tm.stop()
	settleGoroutines(t, "team after stop", base)
}

// TestFanOutEnginesAgree runs every parallel engine on graphs big
// enough that its levels fan out onto the team, against the serial
// reference. Smaller test graphs stay below minFanGrains and exercise
// only the serial kernels.
func TestFanOutEnginesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("65,536-vertex graphs")
	}
	lattice, err := graph.Lattice(256)
	if err != nil {
		t.Fatal(err)
	}
	rmat16 := testRMAT(t, 16, 8, 5)
	cases := []struct {
		name    string
		g       *graph.CSR
		engines []Engine
	}{
		{"lattice256", lattice, []Engine{BottomUpEngine(2)}},
		{"rmat16", rmat16, []Engine{
			TopDownEngine(2), BottomUpEngine(3), EdgeParallelEngine(2),
			HybridEngine(64, 64, 4), BeamerEngine(0, 0, 2), HongEngine(2),
		}},
	}
	for _, tc := range cases {
		src := int32(tc.g.NumVertices()/2 + 128) // the lattice's centre: half the corner's depth
		if tc.g.Degree(src) == 0 {
			src = firstUsable(t, tc.g)
		}
		want, err := Serial(tc.g, src)
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace(tc.g.NumVertices())
		for _, e := range tc.engines {
			var rec levelRecorder
			got, err := e.RunObserved(context.Background(), tc.g, src, ws, &rec)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, e.Name(), err)
			}
			if rec.fanned() == 0 {
				t.Fatalf("%s/%s: no level fanned out", tc.name, e.Name())
			}
			sameTraversal(t, tc.name+"/"+e.Name(), want, got)
			if err := Validate(tc.g, got); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, e.Name(), err)
			}
		}
	}
}
