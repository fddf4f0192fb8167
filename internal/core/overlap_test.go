package core

import (
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
)

func priceLazy(t *testing.T, tr *bfs.Trace, plan Plan, link archsim.Link) *Timing {
	t.Helper()
	timing, err := Price(tr, plan, PriceOptions{Link: link, Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	return timing
}

func TestSimulateLazyNeverSlower(t *testing.T) {
	tr := testTrace(t, 13, 16, 1)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	link := archsim.PCIe()
	for _, plan := range []Plan{
		CrossPlan{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64, M2: 64, N2: 64},
		CrossPlan{Host: cpu, Coprocessor: gpu, M1: 300, N1: 300, M2: 64, N2: 64},
		Combination(cpu, 64, 64),
	} {
		eager := Simulate(tr, plan, link)
		lazy := priceLazy(t, tr, plan, link)
		if lazy.Total > eager.Total+1e-12 {
			t.Errorf("%s: lazy %g slower than eager %g", plan.Name(), lazy.Total, eager.Total)
		}
	}
}

func TestSimulateLazyHidesPredecessorStream(t *testing.T) {
	// A late handoff ships a large predecessor backlog; lazy transfer
	// must hide a meaningful part of it behind subsequent kernels.
	tr := testTrace(t, 14, 16, 2)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	slow := archsim.Link{BandwidthGBs: 0.5, LatencySeconds: 15e-6} // stress the link
	plan := CrossPlan{Host: cpu, Coprocessor: gpu, M1: 10, N1: 10, M2: 64, N2: 64}
	eager := Simulate(tr, plan, slow)
	lazy := priceLazy(t, tr, plan, slow)
	if eager.Transfers == 0 {
		t.Skip("plan never crossed; nothing to hide")
	}
	if lazy.Transfers >= eager.Transfers {
		t.Errorf("lazy transfers %g not below eager %g", lazy.Transfers, eager.Transfers)
	}
}

func TestSimulateLazySingleArchIdentical(t *testing.T) {
	// Without any handoff, lazy and eager must agree exactly.
	tr := testTrace(t, 12, 8, 3)
	plan := Combination(archsim.KnightsCorner(), 64, 64)
	eager := Simulate(tr, plan, archsim.PCIe())
	lazy := priceLazy(t, tr, plan, archsim.PCIe())
	if lazy.Total != eager.Total {
		t.Errorf("single-arch lazy %g != eager %g", lazy.Total, eager.Total)
	}
}
