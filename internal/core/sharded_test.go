package core

import (
	"context"
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
)

func testShardedPlan(ranks int) ShardedPlan {
	return ShardedPlan{
		Device: archsim.SandyBridge(),
		Ranks:  ranks,
		Fabric: archsim.SMP(ranks),
		M:      14,
		N:      24,
	}
}

func TestShardedPlanValidate(t *testing.T) {
	if err := testShardedPlan(4).Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := testShardedPlan(4)
	bad.Ranks = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 ranks accepted")
	}
	mismatch := testShardedPlan(4)
	mismatch.Fabric = archsim.SMP(2)
	if err := mismatch.Validate(); err == nil {
		t.Error("fabric/rank mismatch accepted")
	}
	badMN := testShardedPlan(2)
	badMN.M = 0
	if err := badMN.Validate(); err == nil {
		t.Error("zero M accepted")
	}
	if got, want := testShardedPlan(4).Name(), "4xSandyBridge-8c-1D"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
}

// TestExecuteShardedPrices runs the real partitioned engine and checks
// the priced timing is coherent: one priced step per level, directions
// matching the traversal, a positive communication term whenever more
// than one rank exchanged bytes.
func TestExecuteShardedPrices(t *testing.T) {
	g, src := testGraph(t, 10, 8, 11)
	for _, ranks := range []int{1, 4} {
		plan := testShardedPlan(ranks)
		res, timing, err := ExecuteSharded(context.Background(), g, src, plan, ExecOptions{})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if err := bfs.Validate(g, res); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if len(timing.Steps) != res.NumLevels() {
			t.Fatalf("ranks=%d: %d priced steps for %d levels", ranks, len(timing.Steps), res.NumLevels())
		}
		for i, st := range timing.Steps {
			if st.Dir != res.Directions[i] {
				t.Errorf("ranks=%d step %d: priced %v, ran %v", ranks, i+1, st.Dir, res.Directions[i])
			}
			if st.Kernel <= 0 {
				t.Errorf("ranks=%d step %d: non-positive kernel time", ranks, i+1)
			}
		}
		if ranks == 1 && timing.Transfers != 0 {
			t.Errorf("single rank priced %g s of transfers", timing.Transfers)
		}
		if ranks > 1 && timing.Transfers <= 0 {
			t.Errorf("ranks=%d: no communication priced despite exchanges", ranks)
		}
		if timing.TEPS() <= 0 {
			t.Errorf("ranks=%d: TEPS = %g", ranks, timing.TEPS())
		}
	}
}

// TestSimulateShardedRejectsMismatch pins the exchange-record contract:
// the per-level byte counts must come from an actual sharded traversal
// of the same depth.
func TestSimulateShardedRejectsMismatch(t *testing.T) {
	tr := testTrace(t, 9, 8, 3)
	if _, err := Price(tr, testShardedPlan(2), PriceOptions{}); err == nil {
		t.Error("empty exchange records accepted for a multi-step trace")
	}
}

// TestShardedCommunicationGrowsWithRanks is the crossover property the
// experiment tables report: on a fixed graph, the per-traversal
// communication time grows with the rank count (more, slower pairwise
// rounds), while the per-rank kernel share shrinks.
func TestShardedCommunicationGrowsWithRanks(t *testing.T) {
	g, src := testGraph(t, 11, 8, 7)
	var prevTransfers, prevKernel float64
	for i, ranks := range []int{2, 4, 8} {
		_, timing, err := ExecuteSharded(context.Background(), g, src, testShardedPlan(ranks), ExecOptions{})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		kernel := timing.Total - timing.Transfers
		if i > 0 {
			if timing.Transfers < prevTransfers {
				t.Errorf("ranks=%d: transfers %g s < %g s at the previous rank count", ranks, timing.Transfers, prevTransfers)
			}
			if kernel > prevKernel {
				t.Errorf("ranks=%d: kernel %g s > %g s at the previous rank count", ranks, kernel, prevKernel)
			}
		}
		prevTransfers, prevKernel = timing.Transfers, kernel
	}
}
