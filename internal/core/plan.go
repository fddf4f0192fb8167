// Package core implements the paper's contribution: combining
// top-down and bottom-up BFS across architectures (Algorithm 3) and
// executing/pricing any combination strategy on the architecture
// simulator.
//
// A Plan decides, before every expansion step, which device runs the
// step and in which direction. Single-architecture combinations
// (CPUCB, GPUCB, MICCB), pure baselines (GPUTD, CPUBU, ...), the
// cross-architecture CPUTD+GPUCB of Algorithm 3, its multi-coprocessor
// extension and the partitioned engine are all Plans, so the whole of
// Table IV is one loop over plans and every plan is priced by one loop
// over steps (Price).
package core

import (
	"fmt"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
)

// Placement is one step's scheduling decision: the device and the
// direction, plus — for plans that spread a traversal over several
// devices — the device set holding its state and whether the level is
// split across that set.
type Placement struct {
	Arch archsim.Arch
	Dir  bfs.Direction
	// Group is the device set holding the traversal state when that is
	// wider than Arch; Arch is then the member running an unsplit level
	// and the device model of a split one. Steps on one Group never
	// migrate between each other, and a migration onto a Group ships one
	// copy of the state per member. Nil means Arch alone; device faults
	// address only such single-device placements.
	Group []archsim.Arch
	// Split shares the level across Group under a balanced 1D vertex
	// partition: the level takes as long as its slowest member on
	// 1/len(Group) of the work, lands on the lane named after the plan,
	// and ends with a collective among the members. Rank faults address
	// the members of a split level by their index in Group.
	Split bool
	// Fabric, when set on a split level, carries its collective: the
	// step's measured exchange (PriceOptions.Exchanges, which then also
	// fixes the step's direction) priced on the fabric. Without a fabric
	// the collective is a ring all-reduce of the frontier bitmap over
	// the link.
	Fabric *archsim.Fabric
}

// Plan is a reusable strategy. Begin returns the per-traversal state
// (Algorithm 3 is stateful: once the traversal moves to the
// coprocessor it never returns to the host, §IV).
type Plan interface {
	// Name identifies the plan in tables, e.g. "CPUTD+GPUCB".
	Name() string
	// Begin starts one traversal's decision state.
	Begin() Stepper
}

// Stepper makes the per-step decision for one traversal.
type Stepper interface {
	Place(bfs.StepInfo) Placement
}

// ---- Single-architecture plans ----

// SinglePlan runs every step on one device, choosing the direction
// with a bfs.Policy: the paper's GPUTD, GPUBU, GPUCB, CPUTD, ... rows.
type SinglePlan struct {
	PlanName string
	Arch     archsim.Arch
	Policy   bfs.Policy
}

// Name implements Plan.
func (p SinglePlan) Name() string { return p.PlanName }

// Begin implements Plan. Single-architecture policies used in this
// repository are stateless, so the plan is its own stepper.
func (p SinglePlan) Begin() Stepper { return p }

// Place implements Stepper.
func (p SinglePlan) Place(s bfs.StepInfo) Placement {
	return Placement{Arch: p.Arch, Dir: p.Policy.Choose(s)}
}

// Devices implements DeviceLister.
func (p SinglePlan) Devices() []archsim.Arch { return []archsim.Arch{p.Arch} }

// FixedDirection returns the pure single-direction baseline on arch
// (e.g. GPUTD).
func FixedDirection(arch archsim.Arch, dir bfs.Direction) SinglePlan {
	pol := bfs.AlwaysTopDown
	if dir == bfs.BottomUp {
		pol = bfs.AlwaysBottomUp
	}
	return SinglePlan{
		PlanName: arch.Kind.String() + dir.String(),
		Arch:     arch,
		Policy:   pol,
	}
}

// Combination returns the single-architecture direction-optimizing
// combination on arch with switching thresholds (m, n): the paper's
// CPUCB / GPUCB / MICCB.
func Combination(arch archsim.Arch, m, n float64) SinglePlan {
	return SinglePlan{
		PlanName: arch.Kind.String() + "CB",
		Arch:     arch,
		Policy:   bfs.MN{M: m, N: n},
	}
}

// PolicyPlan runs every step on one device under a freshly
// constructed direction policy per traversal — the safe wrapper for
// stateful policies (Beamer's alpha/beta phases, Hong's one-way
// switch), which must not leak phase state between traversals.
type PolicyPlan struct {
	PlanName  string
	Arch      archsim.Arch
	NewPolicy func() bfs.Policy
}

// Name implements Plan.
func (p PolicyPlan) Name() string { return p.PlanName }

// Begin implements Plan.
func (p PolicyPlan) Begin() Stepper {
	return policyStepper{arch: p.Arch, policy: p.NewPolicy()}
}

// Devices implements DeviceLister.
func (p PolicyPlan) Devices() []archsim.Arch { return []archsim.Arch{p.Arch} }

type policyStepper struct {
	arch   archsim.Arch
	policy bfs.Policy
}

// Place implements Stepper.
func (s policyStepper) Place(info bfs.StepInfo) Placement {
	return Placement{Arch: s.arch, Dir: s.policy.Choose(info)}
}

// TwoArchPlan runs top-down steps on one device and bottom-up steps on
// another, switching by the (M, N) rule. This is the traversal the
// tuner labels: the paper's training samples pair a top-down
// architecture with a bottom-up architecture (Fig. 7's Arch-TD and
// Arch-BU feature blocks), and the same regression model then serves
// both the cross-architecture boundary (TD=CPU, BU=GPU) and the
// single-architecture combination (TD=BU=GPU).
type TwoArchPlan struct {
	TDArch, BUArch archsim.Arch
	M, N           float64
}

// Name implements Plan.
func (p TwoArchPlan) Name() string {
	if p.TDArch.Name == p.BUArch.Name {
		return p.TDArch.Kind.String() + "CB"
	}
	return p.TDArch.Kind.String() + "TD|" + p.BUArch.Kind.String() + "BU"
}

// Validate reports whether the thresholds are usable.
func (p TwoArchPlan) Validate() error {
	if p.M <= 0 || p.N <= 0 {
		return fmt.Errorf("core: two-arch plan thresholds must be positive, got (%g,%g)", p.M, p.N)
	}
	return nil
}

// Begin implements Plan. The MN rule is stateless, so the plan is its
// own stepper.
func (p TwoArchPlan) Begin() Stepper { return p }

// Devices implements DeviceLister.
func (p TwoArchPlan) Devices() []archsim.Arch {
	if p.TDArch.Name == p.BUArch.Name {
		return []archsim.Arch{p.TDArch}
	}
	return []archsim.Arch{p.TDArch, p.BUArch}
}

// Place implements Stepper.
func (p TwoArchPlan) Place(s bfs.StepInfo) Placement {
	if (bfs.MN{M: p.M, N: p.N}).Choose(s) == bfs.BottomUp {
		return Placement{Arch: p.BUArch, Dir: bfs.BottomUp}
	}
	return Placement{Arch: p.TDArch, Dir: bfs.TopDown}
}

// ---- Cross-architecture plan (Algorithm 3) ----

// CrossPlan is the paper's CPUTD+GPUCB (Algorithm 3): top-down on the
// host while the frontier is small by the (M1, N1) rule, then hand off
// to the coprocessor, which runs its own (M2, N2) top-down/bottom-up
// combination and never hands back (§IV: "it is meaningless for the
// CPU+GPU solution to switch back to CPU in the last levels").
type CrossPlan struct {
	Host        archsim.Arch // runs the early top-down levels
	Coprocessor archsim.Arch // runs the rest as a TD/BU combination
	M1, N1      float64      // host->coprocessor boundary (RegressionModel(GI, CPUI, GPUI))
	M2, N2      float64      // on-coprocessor TD/BU switching (RegressionModel(GI, GPUI, GPUI))
}

// Name implements Plan.
func (p CrossPlan) Name() string {
	return p.Host.Kind.String() + "TD+" + p.Coprocessor.Kind.String() + "CB"
}

// Validate reports whether the thresholds are usable.
func (p CrossPlan) Validate() error {
	if p.M1 <= 0 || p.N1 <= 0 || p.M2 <= 0 || p.N2 <= 0 {
		return fmt.Errorf("core: cross plan thresholds must be positive, got (%g,%g,%g,%g)",
			p.M1, p.N1, p.M2, p.N2)
	}
	return nil
}

// Begin implements Plan.
func (p CrossPlan) Begin() Stepper { return &crossStepper{plan: p} }

// Devices implements DeviceLister.
func (p CrossPlan) Devices() []archsim.Arch {
	return []archsim.Arch{p.Host, p.Coprocessor}
}

type crossStepper struct {
	plan    CrossPlan
	cops    []archsim.Arch // MultiCross: the coprocessor set holding the state
	entered bool           // true once any step has run on the coprocessor
}

// Place implements Stepper, following Algorithm 3's control flow.
func (c *crossStepper) Place(s bfs.StepInfo) Placement {
	p := c.plan
	small := func(m, n float64) bool {
		return float64(s.FrontierEdges) < float64(s.TotalEdges)/m &&
			float64(s.FrontierVertices) < float64(s.TotalVertices)/n
	}
	if !c.entered && small(p.M1, p.N1) {
		return Placement{Arch: p.Host, Dir: bfs.TopDown}
	}
	c.entered = true
	if small(p.M2, p.N2) {
		return Placement{Arch: p.Coprocessor, Dir: bfs.TopDown, Group: c.cops}
	}
	return Placement{Arch: p.Coprocessor, Dir: bfs.BottomUp, Group: c.cops, Split: c.cops != nil}
}

// CrossTDBU is the intermediate CPUTD+GPUBU design from Table IV: host
// top-down first, then pure bottom-up on the coprocessor with no
// final top-down switch. Kept as a comparison point.
type CrossTDBU struct {
	Host        archsim.Arch
	Coprocessor archsim.Arch
	M1, N1      float64
}

// Name implements Plan.
func (p CrossTDBU) Name() string {
	return p.Host.Kind.String() + "TD+" + p.Coprocessor.Kind.String() + "BU"
}

// Begin implements Plan.
func (p CrossTDBU) Begin() Stepper {
	// Degenerate CrossPlan whose coprocessor combination never picks
	// top-down (M2, N2 thresholds at +infinity of strictness).
	return &crossStepper{plan: CrossPlan{
		Host: p.Host, Coprocessor: p.Coprocessor,
		M1: p.M1, N1: p.N1,
		M2: 1e18, N2: 1e18,
	}}
}

// Devices implements DeviceLister.
func (p CrossTDBU) Devices() []archsim.Arch {
	return []archsim.Arch{p.Host, p.Coprocessor}
}

// ---- Device-set plans ----

// MultiCross extends Algorithm 3 to k coprocessors. The paper motivates
// heterogeneous BFS with Tianhe-2, whose nodes carry *three* Xeon Phis
// (§I), but evaluates a single coprocessor. Here the host still runs
// the early top-down levels; the traversal state is then broadcast to
// every coprocessor, and the bottom-up middle levels are
// vertex-partitioned across all of them, which exchange their
// next-frontier bitmaps after every level (ring all-reduce over the
// interconnect).
//
// The cost model assumes balanced partitions (vertex ranges of a
// permuted R-MAT graph are statistically uniform): each device prices
// 1/k of the scans and candidates with 1/k of the parallelism, and the
// level ends with an all-reduce that moves 2(k-1)/k of the frontier
// bitmap per device. The single-vertex critical path is NOT divided —
// the device owning the longest scan still walks it alone.
type MultiCross struct {
	Host         archsim.Arch
	Coprocessors []archsim.Arch
	M1, N1       float64 // host boundary (as in CrossPlan)
	M2, N2       float64 // on-coprocessor TD/BU switching
}

// Name identifies the plan in reports, e.g. "CPUTD+3xMICCB".
func (p MultiCross) Name() string {
	if len(p.Coprocessors) == 0 {
		return p.Host.Kind.String() + "TD"
	}
	return fmt.Sprintf("%sTD+%dx%sCB",
		p.Host.Kind, len(p.Coprocessors), p.Coprocessors[0].Kind)
}

// Validate reports whether the plan is usable.
func (p MultiCross) Validate() error {
	if len(p.Coprocessors) == 0 {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: multi-cross plan needs at least one coprocessor")
	}
	if p.M1 <= 0 || p.N1 <= 0 || p.M2 <= 0 || p.N2 <= 0 {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: multi-cross thresholds must be positive")
	}
	return nil
}

func (p MultiCross) check([]bfs.ExchangeStats, int) error { return p.Validate() }

// Devices implements DeviceLister.
func (p MultiCross) Devices() []archsim.Arch {
	return append([]archsim.Arch{p.Host}, p.Coprocessors...)
}

// Begin implements Plan: Algorithm 3's decisions, with the traversal
// state on every coprocessor once the host hands off. Small frontiers
// stay on one coprocessor — splitting launch-bound work only multiplies
// overheads — while bottom-up levels run across the whole set.
func (p MultiCross) Begin() Stepper {
	var lead archsim.Arch // an invalid empty set is rejected by Price
	if len(p.Coprocessors) > 0 {
		lead = p.Coprocessors[0]
	}
	return &crossStepper{cops: p.Coprocessors, plan: CrossPlan{
		Host: p.Host, Coprocessor: lead, M1: p.M1, N1: p.N1, M2: p.M2, N2: p.N2,
	}}
}

// ShardedPlan prices the partitioned engine (bfs.Sharded) on a modeled
// machine: Ranks identical devices joined by a Fabric, each owning one
// 1D shard. Unlike MultiCross — which models a host handing the middle
// levels to coprocessors — every level here runs partitioned, and every
// level pays the collective: an all-reduce for the direction decision
// plus the frontier exchange (delta all-gather for bottom-up levels,
// ghost-claim all-to-all for top-down). The exchanged byte counts come
// from a real traversal's bfs.Result.Exchanges, passed to Price as
// PriceOptions.Exchanges, so the communication term is measured, not
// assumed.
type ShardedPlan struct {
	Device archsim.Arch
	Ranks  int
	Fabric *archsim.Fabric
	M, N   float64
}

// Name identifies the plan in reports, e.g. "4xSandyBridge-8c-1D".
func (p ShardedPlan) Name() string {
	return fmt.Sprintf("%dx%s-1D", p.Ranks, p.Device.Name)
}

// Validate reports whether the plan is usable.
func (p ShardedPlan) Validate() error {
	if p.Ranks < 1 {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: sharded plan needs >= 1 rank, got %d", p.Ranks)
	}
	if p.Fabric == nil {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: sharded plan needs a fabric")
	}
	if p.Fabric.Ranks() != p.Ranks {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: sharded plan has %d ranks but a %d-rank fabric",
			p.Ranks, p.Fabric.Ranks())
	}
	if p.M <= 0 || p.N <= 0 {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: sharded thresholds must be positive")
	}
	return nil
}

func (p ShardedPlan) check(exch []bfs.ExchangeStats, steps int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(exch) != steps {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return fmt.Errorf("core: %d exchange records for a %d-step trace (run the sharded engine to collect them)",
			len(exch), steps)
	}
	return nil
}

// Begin implements Plan. Every level is split across the ranks, and
// its direction is the measured one from the exchange records.
func (p ShardedPlan) Begin() Stepper {
	ranks := make([]archsim.Arch, p.Ranks)
	for i := range ranks {
		ranks[i] = p.Device
	}
	return shardedStepper{Placement{Arch: p.Device, Group: ranks, Split: true, Fabric: p.Fabric}}
}

type shardedStepper struct{ pl Placement }

// Place implements Stepper.
func (s shardedStepper) Place(bfs.StepInfo) Placement { return s.pl }

// checkedPlan is implemented by the device-set plans, which must be
// well formed — and, for ShardedPlan, carry one measured exchange
// record per step — before their steppers can run.
type checkedPlan interface {
	check(exch []bfs.ExchangeStats, steps int) error
}

// DeviceLister is implemented by plans that can enumerate every device
// they may place steps on. The fault ladder uses it to find survivors
// when a placed device has crashed; plans that do not implement it can
// only replan onto devices already seen in earlier placements.
type DeviceLister interface {
	Devices() []archsim.Arch
}

// partitionStats scales one level's work counts to a 1/k vertex
// partition under the balanced-partition assumption.
func partitionStats(s bfs.LevelStats, k int) bfs.LevelStats {
	if k <= 1 {
		return s
	}
	out := s
	kk := int64(k)
	out.FrontierVertices = (s.FrontierVertices + kk - 1) / kk
	out.FrontierEdges = (s.FrontierEdges + kk - 1) / kk
	out.Discovered = (s.Discovered + kk - 1) / kk
	out.UnvisitedVertices = (s.UnvisitedVertices + kk - 1) / kk
	out.UnvisitedEdges = (s.UnvisitedEdges + kk - 1) / kk
	out.BottomUpScans = (s.BottomUpScans + kk - 1) / kk
	// MaxScan and MaxFrontierDegree stay: one device owns the longest
	// list. GraphVertices stays: bitmaps are replicated, not split.
	return out
}
