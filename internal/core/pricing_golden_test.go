package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/fault"
	"crossbfs/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/pricing_golden.json from the current pricing code")

// goldenCase is one pricing call pinned by pricing_golden.json. Exactly
// one of plan, multi and shard is set.
type goldenCase struct {
	name   string
	plan   Plan
	multi  *MultiCross
	shard  *ShardedPlan
	link   archsim.Link
	lazy   bool
	faults string // fault.Parse grammar; "" prices a clean run
	seed   uint64
	noExch bool // price a sharded case without exchange records
}

// observed reports whether the case is priced with a live recorder.
// Lazy and sharded pricing take no recorder in the pinned form, so
// their event streams are pinned empty.
func (c goldenCase) observed() bool { return !c.lazy && c.shard == nil }

// goldenExchanges returns hand-written per-step exchange records for a
// sharded case: a fixed formula over the step index, so the pinned
// numbers do not depend on how the sharded engine schedules its ranks.
func goldenExchanges(tr *bfs.Trace) []bfs.ExchangeStats {
	exch := make([]bfs.ExchangeStats, len(tr.Steps))
	mn := bfs.MN{M: 14, N: 24}
	for i, s := range tr.Steps {
		dir := mn.Choose(bfs.StepInfo{
			Step: s.Step, FrontierVertices: s.FrontierVertices, FrontierEdges: s.FrontierEdges,
			UnvisitedVertices: s.UnvisitedVertices, TotalVertices: tr.NumVertices, TotalEdges: tr.NumEdges,
		})
		exch[i] = bfs.ExchangeStats{Step: s.Step, Dir: dir}
		if dir == bfs.BottomUp {
			exch[i].FrontierBytes = int64(512*(i+1)) + s.Discovered/4
		} else {
			exch[i].GhostBytes = 8*s.Discovered + int64(96*i)
			exch[i].GhostSent = s.Discovered
			exch[i].GhostApplied = s.Discovered - s.Discovered/8
		}
	}
	return exch
}

func goldenCases() []goldenCase {
	cpu, gpu, mic := archsim.SandyBridge(), archsim.KeplerK20x(), archsim.KnightsCorner()
	pcie := archsim.PCIe()
	slow := archsim.Link{BandwidthGBs: 0.5, LatencySeconds: 15e-6}
	cross := CrossPlan{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64, M2: 64, N2: 64}
	late := CrossPlan{Host: cpu, Coprocessor: gpu, M1: 10, N1: 10, M2: 64, N2: 64}
	crossMIC := CrossPlan{Host: cpu, Coprocessor: mic, M1: 64, N1: 64, M2: 32, N2: 32}
	tdbu := CrossTDBU{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64}
	two := TwoArchPlan{TDArch: cpu, BUArch: gpu, M: 64, N: 64}
	twoSame := TwoArchPlan{TDArch: gpu, BUArch: gpu, M: 64, N: 64}
	beamer := PolicyPlan{PlanName: "AlphaBeta", Arch: cpu,
		NewPolicy: func() bfs.Policy { return bfs.NewAlphaBeta(0, 0) }}

	var cs []goldenCase
	// Every single-device and cross-device plan family, eager and lazy.
	for _, p := range []Plan{
		FixedDirection(gpu, bfs.TopDown), FixedDirection(gpu, bfs.BottomUp),
		FixedDirection(cpu, bfs.TopDown), Combination(cpu, 64, 64),
		Combination(gpu, 64, 64), Combination(mic, 64, 64), beamer,
		two, twoSame, cross, late, crossMIC, tdbu,
	} {
		cs = append(cs,
			goldenCase{name: "eager/" + p.Name(), plan: p, link: pcie},
			goldenCase{name: "lazy/" + p.Name(), plan: p, link: pcie, lazy: true},
		)
	}
	cs = append(cs,
		goldenCase{name: "eager-slow/" + late.Name(), plan: late, link: slow},
		goldenCase{name: "lazy-slow/" + late.Name(), plan: late, link: slow, lazy: true},
	)
	// Multi-coprocessor plans, k = 1..3, plus the rejected empty set.
	for k := 1; k <= 3; k++ {
		for _, cop := range []archsim.Arch{gpu, mic} {
			cops := make([]archsim.Arch, k)
			for i := range cops {
				cops[i] = cop
			}
			m := MultiCross{Host: cpu, Coprocessors: cops, M1: 64, N1: 64, M2: 64, N2: 64}
			cs = append(cs, goldenCase{name: "multi/" + m.Name(), multi: &m, link: pcie})
		}
	}
	cs = append(cs, goldenCase{name: "multi/invalid", multi: &MultiCross{Host: cpu}, link: pcie})
	// Device faults through the degradation ladder.
	for _, f := range []struct {
		spec string
		seed uint64
	}{
		{"crash:GPU@4", 1}, {"crash:GPU@1", 1}, {"crash:CPU@2", 1},
		{"transient:0.5", 3}, {"transient:1", 4}, {"transient:0.6", 42},
		{"slow:GPU@3x10", 5}, {"slow:CPUx2", 1},
		{"crash:GPU@4;transient:0.2;slow:CPU@2x1.5", 6},
		{"crash:CPU@1;crash:GPU@1", 7},
		{"transient:1;crash:CPU@5", 8},
	} {
		for _, p := range []Plan{cross, late, two, tdbu, Combination(gpu, 64, 64)} {
			cs = append(cs, goldenCase{
				name: "faults/" + f.spec + "/" + p.Name(), plan: p, link: pcie,
				faults: f.spec, seed: f.seed,
			})
		}
	}
	// Sharded plans on hand-written exchange records, clean and under
	// every rank fault kind (and a device fault, which sharded pricing
	// does not consume).
	for _, ranks := range []int{1, 2, 4} {
		sp := ShardedPlan{Device: cpu, Ranks: ranks, Fabric: archsim.SMP(ranks), M: 14, N: 24}
		eth := ShardedPlan{Device: cpu, Ranks: ranks, Fabric: archsim.Eth10G(ranks), M: 14, N: 24}
		cs = append(cs,
			goldenCase{name: fmt.Sprintf("sharded/%d/smp", ranks), shard: &sp},
			goldenCase{name: fmt.Sprintf("sharded/%d/eth", ranks), shard: &eth},
		)
		for _, spec := range []string{
			"rankcrash:0@1", "rankcrash:1@2", "rankcrash:0@1;rankcrash:1@2",
			"ranklag:0x3@2", "ranklag:1x2", "exchdrop:0.4", "exchdrop:1",
			"rankcrash:1@2;ranklag:0x2;exchdrop:0.1", "crash:CPU@2",
		} {
			cs = append(cs, goldenCase{
				name:  fmt.Sprintf("sharded/%d/%s", ranks, spec),
				shard: &eth, faults: spec, seed: 9,
			})
		}
	}
	bad := ShardedPlan{Device: cpu, Ranks: 2, Fabric: archsim.SMP(4), M: 14, N: 24}
	pair := ShardedPlan{Device: cpu, Ranks: 2, Fabric: archsim.SMP(2), M: 14, N: 24}
	cs = append(cs,
		goldenCase{name: "sharded/invalid", shard: &bad},
		goldenCase{name: "sharded/no-exchanges", shard: &pair, noExch: true},
	)
	return cs
}

// priceGolden prices one case through the pricing API.
func priceGolden(tr *bfs.Trace, c goldenCase, sched *fault.Schedule, rec obs.Recorder) (*Timing, error) {
	opts := PriceOptions{Link: c.link, Lazy: c.lazy, Schedule: sched, Recorder: rec}
	switch {
	case c.shard != nil:
		if !c.noExch {
			opts.Exchanges = goldenExchanges(tr)
		}
		return Price(tr, *c.shard, opts)
	case c.multi != nil:
		return Price(tr, *c.multi, opts)
	default:
		return Price(tr, c.plan, opts)
	}
}

type goldenRecord struct {
	Name   string   `json:"name"`
	Error  string   `json:"error,omitempty"`
	Timing []string `json:"timing,omitempty"`
	Events []string `json:"events,omitempty"`
}

func hexf(f float64) string { return fmt.Sprintf("%x", f) }

func timingLines(t *Timing) []string {
	if t == nil {
		return nil
	}
	out := []string{fmt.Sprintf("plan=%s total=%s transfers=%s edges=%d retries=%d replans=%d",
		t.Plan, hexf(t.Total), hexf(t.Transfers), t.EdgesVisited, t.Retries, t.Replans)}
	for _, s := range t.Steps {
		out = append(out, fmt.Sprintf("step=%d arch=%s kind=%s dir=%s kernel=%s transfer=%s",
			s.Step, s.ArchName, s.Kind, s.Dir, hexf(s.Kernel), hexf(s.Transfer)))
	}
	for _, f := range t.Faults {
		out = append(out, "fault "+f.String())
	}
	return out
}

// eventLines renders a captured stream with TraversalIDs renumbered in
// order of appearance, since the process-wide counter depends on which
// tests ran first.
func eventLines(events []obs.Event) []string {
	ids := map[uint64]int{}
	var out []string
	for _, e := range events {
		id, ok := ids[e.TraversalID]
		if !ok {
			id = len(ids) + 1
			ids[e.TraversalID] = id
		}
		out = append(out, fmt.Sprintf(
			"%s id=%d root=%d idx=%d step=%d dir=%s fv=%d fe=%d disc=%d unv=%d scans=%d "+
				"simstart=%s simdur=%s engine=%s device=%s from=%s bytes=%d detail=%q",
			e.Kind, id, e.Root, e.Index, e.Step, e.Dir, e.FrontierVertices, e.FrontierEdges,
			e.Discovered, e.Unvisited, e.Scans, hexf(e.SimStart), hexf(e.SimDur),
			e.Engine, e.Device, e.From, e.Bytes, e.Detail))
	}
	return out
}

// TestPricingGolden pins the simulator's output — every Timing field
// with floats as exact hex bits, every fault record, and the telemetry
// stream — across every plan family, eager and lazy transfers, and
// every fault kind, on a fixed SCALE-12 trace. Pricing changes that
// are meant to move numbers regenerate the file with
// `go test ./internal/core -run PricingGolden -update` and review the
// diff.
func TestPricingGolden(t *testing.T) {
	tr := testTrace(t, 12, 16, 5)
	var recs []goldenRecord
	for _, c := range goldenCases() {
		var sched *fault.Schedule
		if c.faults != "" {
			sched = mustSchedule(t, c.faults, c.seed)
		}
		var rec obs.Recorder
		capture := &captureRecorder{}
		if c.observed() {
			rec = capture
		}
		timing, err := priceGolden(tr, c, sched, rec)
		r := goldenRecord{Name: c.name, Timing: timingLines(timing), Events: eventLines(capture.events)}
		if err != nil {
			r.Error = err.Error()
		}
		recs = append(recs, r)
	}
	got, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "pricing_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("pricing drifted from %s; rerun with -update and review the diff", golden)
	}
}

// TestSimulateAllocs bounds a clean price's allocations: the Timing,
// its step slice, and the plan's stepper. Fault-ladder state must only
// be allocated when a schedule is present.
func TestSimulateAllocs(t *testing.T) {
	tr := testTrace(t, 14, 16, 2)
	plan := defaultCross()
	link := archsim.PCIe()
	allocs := testing.AllocsPerRun(20, func() { Simulate(tr, plan, link) })
	if allocs > 5 {
		t.Errorf("Simulate(CrossPlan) = %v allocs/op, want <= 5", allocs)
	}
	t.Logf("Simulate(CrossPlan): %v allocs/op", allocs)
}
