package core

import (
	"fmt"
	"math"
	"slices"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/fault"
	"crossbfs/internal/obs"
)

// StepTiming is the priced outcome of one expansion step — one row of
// the paper's Table IV.
type StepTiming struct {
	Step     int
	ArchName string
	Kind     archsim.Kind
	Dir      bfs.Direction
	// Kernel is the simulated seconds spent expanding the level.
	Kernel float64
	// Transfer is the simulated seconds on the link or fabric: moving
	// state onto this step's device (nonzero only when the previous step
	// ran elsewhere) plus a split level's collective.
	Transfer float64
}

// Timing is the priced outcome of a whole traversal.
type Timing struct {
	Plan         string
	Steps        []StepTiming
	Total        float64 // seconds, kernels + transfers
	Transfers    float64 // seconds spent on the link
	EdgesVisited int64   // adjacency entries of the reachable component

	// Degradation report, filled only under a fault schedule
	// (PriceOptions.Schedule); all zero on a clean run.
	Retries int           // dropped transfers re-attempted
	Replans int           // placement changes forced by faults
	Faults  []FaultRecord // every fault event and the ladder rung taken
}

// Degraded reports whether any fault altered the execution.
func (t *Timing) Degraded() bool {
	return t.Retries > 0 || t.Replans > 0 || len(t.Faults) > 0
}

// TEPS returns traversed edges per second, the Graph 500 metric
// (Table I). Each undirected edge of the reachable component is
// counted once, per the Graph 500 convention.
func (t *Timing) TEPS() float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(t.EdgesVisited) / 2 / t.Total
}

// GTEPS returns TEPS in billions (the unit of the paper's Table VI).
func (t *Timing) GTEPS() float64 { return t.TEPS() / 1e9 }

// FaultRecord documents one fault event the pricing encountered and
// what the degradation ladder did about it.
type FaultRecord struct {
	Step   int
	Kind   fault.Kind
	Device string
	// Action is the ladder rung taken: "retry", "recover" (split-level
	// survivors absorbing a dead rank), "replan", "slowdown", or
	// "fatal".
	Action string
	Detail string
}

// String renders the record for reports.
func (r FaultRecord) String() string {
	return fmt.Sprintf("step %d: %s on %s -> %s (%s)", r.Step, r.Kind, r.Device, r.Action, r.Detail)
}

// PriceOptions configure Price. The zero value prices eager transfers
// over a free link, with no faults and no telemetry.
type PriceOptions struct {
	// Link prices migrations between devices, and the collective of a
	// split level that has no fabric.
	Link archsim.Link
	// Lazy blocks a migration only on the state the next kernel reads
	// (see Price) and streams the rest behind the following kernels.
	Lazy bool
	// Exchanges are the measured per-step exchange volumes of a sharded
	// traversal (bfs.Result.Exchanges: one entry per step, in step
	// order). Plans whose levels carry a Fabric (ShardedPlan) need them.
	Exchanges []bfs.ExchangeStats
	// Schedule is the fault injection registry; nil or empty injects
	// nothing, and the ladder then allocates no state at all.
	Schedule *fault.Schedule
	// MaxRetries, RetryBackoff and BackoffCap are the retry policy for
	// a dropped transfer or exchange: at most MaxRetries re-attempts
	// (<= 0 selects 3), the first after a modeled RetryBackoff seconds
	// (<= 0 selects 50us), doubling up to BackoffCap (<= 0 selects 5ms).
	MaxRetries               int
	RetryBackoff, BackoffCap float64
	// Recorder receives the plan timeline on the simulated clock (see
	// Price) plus one retry / replan / fault event mirroring every
	// FaultRecord. nil disables telemetry.
	Recorder obs.Recorder
	// TraversalID, when nonzero, stamps the timeline instead of a fresh
	// ID. Callers that run a real traversal and then price it set it so
	// both halves share one ID — the invariant obs.Sampler relies on to
	// keep or drop the whole run with a single decision.
	TraversalID uint64
}

func (o PriceOptions) withDefaults() PriceOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50e-6
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 5e-3
	}
	return o
}

// Simulate prices a plan against a traversal trace with eager transfers
// over link, no faults and no telemetry: Price with only the link set.
// It returns nil where Price would return an error (an invalid
// MultiCross, or a ShardedPlan, which needs exchange records).
func Simulate(tr *bfs.Trace, plan Plan, link archsim.Link) *Timing {
	t, _ := Price(tr, plan, PriceOptions{Link: link})
	return t
}

// Price prices a plan against a traversal trace. Because level sets
// are direction-independent, this replays any plan without
// re-traversing the graph: each step charges the placed device (or the
// slowest member of a split level) for its direction's work, plus a
// transfer whenever the placement moves between devices.
//
// A migration ships the frontier and visited bitmaps and the
// predecessor/level entries discovered since the target last held the
// traversal, one copy per member of the target device set — so a late
// (mistuned) handoff pays for everything discovered so far, the
// mechanism behind the paper's 695x best-to-worst spread for
// cross-architecture switching. With opts.Lazy only the bitmaps block:
// no later kernel reads the predecessor entries, so they stream behind
// the following kernels and surface only as a stall when a level (or
// the traversal) finishes before the stream drains. A split level runs
// 1/n of the work on each of its n members and ends with a collective
// (see Placement).
//
// Under opts.Schedule every fault is a rung of one degradation ladder.
// Device faults address placements without a Group: a crashed device's
// steps move to a survivor (CPUs preferred), paying the migration; a
// dropped transfer is retried with capped exponential backoff, each
// failed attempt charging its wire time plus the wait, and once retries
// are exhausted the step stays where the state is (fatal if that device
// is dead too); a slowed device prices on its derated copy. Rank faults
// address the members of a split level: survivors of a crash absorb its
// share and pay one replayed kernel plus a checkpoint all-gather (losing
// the last member is fatal); a lagging rank stretches the level and
// degrades its fabric links; an exchange-drop probability multiplies
// each collective by its expected attempts and adds the expected
// backoff. When the ladder runs out, the partial Timing is returned
// with a *fault.Error.
//
// With a live opts.Recorder the price opens a timeline (KindPlanStart),
// emits a KindSimStep per level on its lane and a KindHandoff per
// migration or collective (SimStart/SimDur in modeled seconds), mirrors
// every FaultRecord, and closes with KindPlanEnd carrying the total.
func Price(tr *bfs.Trace, plan Plan, opts PriceOptions) (*Timing, error) {
	if c, ok := plan.(checkedPlan); ok {
		if err := c.check(opts.Exchanges, len(tr.Steps)); err != nil {
			return nil, err
		}
	}
	name := plan.Name()
	stepper := plan.Begin()
	t := &Timing{
		Plan:         name,
		Steps:        make([]StepTiming, 0, len(tr.Steps)),
		EdgesVisited: tr.EdgesVisited,
	}
	if opts.Lazy {
		t.Plan += "+lazy"
	}

	tl := timeline{t: t, root: tr.Source}
	if obs.Live(opts.Recorder) {
		tl.rec = opts.Recorder
		if tl.id = opts.TraversalID; tl.id == 0 {
			tl.id = obs.NextTraversalID()
		}
		tl.emit(obs.Event{Kind: obs.KindPlanStart, Dir: obs.DirNone})
		// The closer runs under defer so the timeline stays paired on
		// the ladder's fatal returns, and even if a malformed trace
		// panics a Place call mid-loop; t.Total is final by then.
		defer func() {
			tl.emit(obs.Event{Kind: obs.KindPlanEnd, Dir: obs.DirNone, SimStart: t.Total, SimDur: t.Total})
		}()
	}
	var lad *ladder
	if !opts.Schedule.Empty() {
		lad = newLadder(plan, opts, tl)
	}

	bitmapBytes := (tr.NumVertices + 7) / 8
	var prev Placement // the previous step's placement, as priced (ladder only)
	prevLane, prevHome, prevFan := "", "", 0
	discovered := int64(1) // the source itself
	pending := 0.0         // seconds of lazy predecessor stream in flight

	for i, s := range tr.Steps {
		pl := stepper.Place(bfs.StepInfo{
			Step:              s.Step,
			FrontierVertices:  s.FrontierVertices,
			FrontierEdges:     s.FrontierEdges,
			UnvisitedVertices: s.UnvisitedVertices,
			TotalVertices:     tr.NumVertices,
			TotalEdges:        tr.NumEdges,
		})
		var ex bfs.ExchangeStats
		if pl.Fabric != nil {
			ex = opts.Exchanges[i]
			pl.Dir = ex.Dir
		}
		if lad != nil && len(pl.Group) == 0 {
			if err := lad.crash(&pl, s.Step); err != nil {
				return t, err
			}
		}

		st := StepTiming{Step: s.Step, Dir: pl.Dir}
		home, fan := pl.Arch.Name, 1
		if len(pl.Group) > 0 {
			home, fan = pl.Group[0].Name, len(pl.Group)
		}
		var moved int64
		from := ""
		if i > 0 && (home != prevHome || fan != prevFan) {
			per := 2*bitmapBytes + 8*discovered
			blocking := per
			if opts.Lazy {
				blocking = 2 * bitmapBytes
			}
			base := float64(fan) * opts.Link.TransferTime(blocking)
			moved, from = int64(fan)*per, prevLane
			// A stream still in flight drains before the link is reused.
			st.Transfer, pending = pending, 0
			wasted, migrated := 0.0, true
			if lad != nil {
				var err error
				if wasted, migrated, err = lad.retry(base, pl.Arch, prev.Arch, s.Step); err != nil {
					return t, err
				}
			}
			if migrated {
				st.Transfer += base + wasted
				if opts.Lazy {
					pending = float64(fan) * opts.Link.TransferTime(8*discovered)
				}
				discovered = 0
			} else {
				// Abandoned: the step runs where the state already is.
				st.Transfer += wasted
				prev.Dir = pl.Dir
				pl, home, fan = prev, prevHome, prevFan
			}
		}
		if lad != nil && len(pl.Group) == 0 {
			pl.Arch = lad.slow(pl.Arch, s.Step)
		}

		lane := pl.Arch.Name
		if !pl.Split {
			st.Kernel = pl.Arch.StepTime(pl.Dir, s)
		} else {
			lane = name
			lv := splitLevel{members: pl.Group, lag: 1, attempts: 1, fabric: pl.Fabric}
			if lad != nil {
				var err error
				if lv, err = lad.ranks(pl, lv, s.Step, lane); err != nil {
					return t, err
				}
			}
			live := len(lv.members)
			part := partitionStats(s, live)
			slowest := 0.0
			for _, m := range lv.members {
				slowest = math.Max(slowest, m.StepTime(pl.Dir, part))
			}
			st.Kernel = slowest * lv.lag
			var regather float64
			perRank := ex.FrontierBytes / int64(live)
			switch {
			case pl.Fabric != nil:
				st.Transfer += lv.fabric.ExchangeTime(perRank, ex.GhostBytes) * lv.attempts
				regather = lv.fabric.AllGatherTime(perRank)
				moved += ex.TotalBytes()
			case live > 1:
				ring := 2 * bitmapBytes * int64(live-1) / int64(live)
				regather = opts.Link.TransferTime(ring)
				st.Transfer += regather * lv.attempts
				moved += int64(live) * ring
			}
			st.Transfer += lv.backoff
			// Recovery: each death this level makes the survivors roll
			// back, all-gather the checkpointed frontier, and replay.
			for d := 0; d < lv.deaths; d++ {
				st.Kernel += slowest * lv.lag
				st.Transfer += regather
			}
			if from == "" {
				from = lane // a collective among peers
			}
		}
		st.ArchName, st.Kind = lane, pl.Arch.Kind

		if tl.rec != nil {
			// The timeline plays transfer-then-kernel: the state must
			// arrive before the device can expand the level. An abandoned
			// migration shows as a handoff whose From equals its target:
			// the wasted wire time of the failed attempts.
			if st.Transfer > 0 {
				tl.emit(obs.Event{
					Kind: obs.KindHandoff, Step: int32(s.Step), Dir: obs.DirNone,
					From: from, Device: lane, Bytes: moved,
					SimStart: t.Total, SimDur: st.Transfer,
				})
			}
			tl.emit(obs.Event{
				Kind: obs.KindSimStep, Step: int32(s.Step),
				Dir:              obs.Direction(pl.Dir),
				Device:           lane,
				FrontierVertices: s.FrontierVertices,
				FrontierEdges:    s.FrontierEdges,
				Discovered:       s.Discovered,
				Unvisited:        s.UnvisitedVertices,
				Scans:            s.BottomUpScans,
				SimStart:         t.Total + st.Transfer,
				SimDur:           st.Kernel,
			})
		}

		prevLane, prevHome, prevFan = lane, home, fan
		if lad != nil {
			prev = pl // only the ladder's transfer rung looks back at it
		}
		discovered += s.Discovered
		pending = math.Max(0, pending-st.Kernel)
		t.Steps = append(t.Steps, st)
		t.Total += st.Kernel + st.Transfer
		t.Transfers += st.Transfer
	}
	if lad != nil {
		lad.finish()
	}
	// A stream still in flight at the end must drain before results
	// are usable.
	t.Total += pending
	t.Transfers += pending
	return t, nil
}

// timeline mirrors a priced plan as telemetry on the simulated clock.
// rec is nil when telemetry is off.
type timeline struct {
	rec  obs.Recorder
	id   uint64
	root int32
	t    *Timing
}

func (tl timeline) emit(e obs.Event) {
	e.TraversalID, e.Root, e.Engine = tl.id, tl.root, tl.t.Plan
	tl.rec.Event(e)
}

// note appends one ladder record and mirrors it as a telemetry event —
// retry → KindRetry, recover/replan → KindReplan, slowdown/fatal →
// KindFault — stamped at the current simulated time.
func (tl timeline) note(fr FaultRecord) {
	tl.t.Faults = append(tl.t.Faults, fr)
	if tl.rec == nil {
		return
	}
	kind := obs.KindFault
	switch fr.Action {
	case "retry":
		kind = obs.KindRetry
	case "recover", "replan":
		kind = obs.KindReplan
	}
	tl.emit(obs.Event{
		Kind: kind, Step: int32(fr.Step), Dir: obs.DirNone,
		Device: fr.Device, Detail: fr.Action + ": " + fr.Detail,
		SimStart: tl.t.Total,
	})
}

// splitLevel is the fault-adjusted shape of one split level.
type splitLevel struct {
	members  []archsim.Arch // still sharing the level
	deaths   int            // members lost at this level
	lag      float64        // worst lag factor among the survivors
	attempts float64        // expected collective attempts on the wire
	backoff  float64        // expected backoff wait, seconds
	fabric   *archsim.Fabric
}

// ladder is the degradation state of one faulted price; a clean price
// never allocates it.
type ladder struct {
	opts     PriceOptions // retry knobs with defaults applied
	tl       timeline
	devices  []archsim.Arch
	reported map[string]bool // rung + device: once-per-device records written
	dead     []bool          // split-level members fenced so far
	live     int             // split-level members still alive
	// The expected cost of a dropped collective under probability
	// dropP: sum(p^k) attempts on the wire plus the expected backoff.
	dropP, attempts, backoff float64
	expected                 float64 // expected re-attempts so far
	splitLevels              int
}

func newLadder(plan Plan, opts PriceOptions, tl timeline) *ladder {
	opts = opts.withDefaults()
	l := &ladder{
		opts: opts, tl: tl,
		reported: map[string]bool{}, attempts: 1,
	}
	l.opts.Schedule.Reset()
	if dl, ok := plan.(DeviceLister); ok {
		l.devices = dl.Devices()
	}
	if l.dropP = l.opts.Schedule.ExchangeDropProb(); l.dropP > 0 {
		backoff := opts.RetryBackoff
		for k := 1; k <= opts.MaxRetries; k++ {
			pk := math.Pow(l.dropP, float64(k))
			l.attempts += pk
			l.backoff += pk * backoff
			if backoff *= 2; backoff > opts.BackoffCap {
				backoff = opts.BackoffCap
			}
		}
	}
	return l
}

func (l *ladder) alive(a archsim.Arch, step int) bool {
	_, crashed := l.opts.Schedule.CrashedBy(a.Name, a.Kind.String(), step)
	return !crashed
}

// fatal records the ladder's last rung, and returns its typed error.
func (l *ladder) fatal(step int, kind fault.Kind, device, detail, reason string) error {
	l.tl.note(FaultRecord{Step: step, Kind: kind, Device: device, Action: "fatal", Detail: detail})
	return &fault.Error{Kind: kind, Device: device, Step: step, Reason: reason}
}

// crash moves a step placed on a crashed device to the replan target:
// the first living CPU if any (the general-purpose fallback at the
// bottom of the ladder), else the first living device in plan order.
func (l *ladder) crash(pl *Placement, step int) error {
	arch := pl.Arch
	if !slices.ContainsFunc(l.devices, func(d archsim.Arch) bool { return d.Name == arch.Name }) {
		l.devices = append(l.devices, arch)
	}
	if l.alive(arch, step) {
		return nil
	}
	living := func(d archsim.Arch) bool { return l.alive(d, step) }
	i := slices.IndexFunc(l.devices, func(d archsim.Arch) bool { return d.Kind == archsim.CPU && living(d) })
	if i < 0 {
		i = slices.IndexFunc(l.devices, living)
	}
	if i < 0 {
		return l.fatal(step, fault.DeviceCrash, arch.Name, "no surviving device", "no surviving device to replan onto")
	}
	if key := "crash " + arch.Name; !l.reported[key] {
		l.reported[key] = true
		l.tl.t.Replans++
		l.tl.note(FaultRecord{
			Step: step, Kind: fault.DeviceCrash, Device: arch.Name,
			Action: "replan", Detail: "steps moved to " + l.devices[i].Name,
		})
	}
	pl.Arch = l.devices[i]
	return nil
}

// retry re-attempts a dropped migration onto to with capped exponential
// backoff. It returns the seconds the failed attempts cost and whether
// the migration went through; when it did not, the step stays on from.
func (l *ladder) retry(base float64, to, from archsim.Arch, step int) (wasted float64, migrated bool, err error) {
	backoff := l.opts.RetryBackoff
	retries := 0
	migrated = true
	for l.opts.Schedule.LinkDrops() {
		if retries == l.opts.MaxRetries {
			migrated = false
			wasted += base // the final failed attempt
			break
		}
		retries++
		wasted += base + backoff // failed wire time + wait
		backoff = math.Min(backoff*2, l.opts.BackoffCap)
	}
	l.tl.t.Retries += retries
	switch {
	case migrated:
		if retries > 0 {
			l.tl.note(FaultRecord{
				Step: step, Kind: fault.LinkTransient, Device: to.Name,
				Action: "retry", Detail: fmt.Sprintf("transfer succeeded after %d retries", retries),
			})
		}
	case l.alive(from, step):
		l.tl.t.Replans++
		l.tl.note(FaultRecord{
			Step: step, Kind: fault.LinkTransient, Device: to.Name,
			Action: "replan", Detail: fmt.Sprintf("transfer retries exhausted; staying on %s", from.Name),
		})
	default:
		// Migrating off a dead device over a dead link: the traversal
		// state is unreachable.
		return wasted, false, l.fatal(step, fault.LinkTransient, to.Name,
			"transfer retries exhausted and source device is down",
			fmt.Sprintf("transfer failed after %d retries with no surviving source", retries))
	}
	return wasted, migrated, nil
}

// slow returns a on its derated copy when the schedule slows it.
func (l *ladder) slow(a archsim.Arch, step int) archsim.Arch {
	f := l.opts.Schedule.SlowdownAt(a.Name, a.Kind.String(), step)
	if f <= 1 {
		return a
	}
	if key := "slow " + a.Name; !l.reported[key] {
		l.reported[key] = true
		l.tl.note(FaultRecord{
			Step: step, Kind: fault.KernelSlowdown, Device: a.Name,
			Action: "slowdown", Detail: fmt.Sprintf("rates derated x%g", f),
		})
	}
	return a.Slowed(f)
}

// ranks applies the rank rungs to one split level: it fences every
// member the schedule has crashed by this step (each death is one
// membership change the survivors replay the level for), stretches the
// level by the worst surviving lag, and prices the collective's
// expected drops.
func (l *ladder) ranks(pl Placement, lv splitLevel, step int, lane string) (splitLevel, error) {
	if l.dead == nil {
		l.dead, l.live = make([]bool, len(pl.Group)), len(pl.Group)
	}
	lv.members = make([]archsim.Arch, 0, l.live)
	last := 0
	for r, m := range pl.Group {
		if l.dead[r] {
			continue
		}
		if ev, ok := l.opts.Schedule.RankCrashedBy(r, step); ok {
			l.dead[r] = true
			l.live--
			lv.deaths++
			last = r
			l.tl.t.Replans++
			l.tl.note(FaultRecord{
				Step: step, Kind: fault.RankCrash,
				Device: fmt.Sprintf("rank%d", r), Action: "recover",
				Detail: fmt.Sprintf("injected %s; %d survivors replay level %d", ev, l.live, step),
			})
			continue
		}
		lv.members = append(lv.members, m)
		if f := l.opts.Schedule.RankLagAt(r, step); f > 1 {
			lv.lag = math.Max(lv.lag, f)
			if lv.fabric != nil {
				lv.fabric = lv.fabric.DegradeRank(r, f)
			}
		}
	}
	if l.live == 0 {
		return lv, l.fatal(step, fault.RankCrash, fmt.Sprintf("rank%d", last), "no surviving rank", "no surviving rank")
	}
	if lv.lag > 1 {
		l.tl.note(FaultRecord{
			Step: step, Kind: fault.RankLag, Device: lane,
			Action: "slowdown",
			Detail: fmt.Sprintf("collective stretched %.3gx by lagging rank", lv.lag),
		})
	}
	lv.attempts, lv.backoff = l.attempts, l.backoff
	l.expected += l.attempts - 1
	l.splitLevels++
	return lv, nil
}

// finish reports the collectives' expected exchange retries, once per
// price.
func (l *ladder) finish() {
	if l.expected <= 0 {
		return
	}
	l.tl.t.Retries += int(math.Ceil(l.expected))
	l.tl.note(FaultRecord{
		Step: 1, Kind: fault.ExchangeDrop, Device: "fabric",
		Action: "retry",
		Detail: fmt.Sprintf("drop p=%.3g: expected %.2f re-attempts across %d levels", l.dropP, l.expected, l.splitLevels),
	})
}
