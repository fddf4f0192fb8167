package obs

import "strconv"

// RegistryRecorder is the one aggregator of the event stream: one
// instance folds every event kind for one engine into Registry cells.
// The dimensional contract is honored by construction — every
// (engine, dir), (engine, kind) and (engine, rank) tuple the recorder
// will ever touch is interned in NewRegistryRecorder, so Event is
// nothing but atomic adds on pre-resolved cells: 0 allocs/op, gated by
// TestRegistryRecorderAllocs and the "labeled" mode of
// BenchmarkRunManyRecorderOverhead.
type RegistryRecorder struct {
	traversals *Cell
	errors     *Cell    // KindTraversalEnd with Detail set
	reuses     *Cell    // KindTraversalStart with Reused
	scans      *Cell    // bottom-up adjacency entries scanned
	levels     [2]*Cell // indexed by Direction (td, bu)
	discovered [2]*Cell
	frontier   [2]*Cell // histogram of per-level |V|cq
	levelWall  [2]*Cell // histogram of per-level wall seconds
	// events counts every kind without a dedicated family, indexed by
	// Kind; traversal_start and level are nil (counted above).
	events    [numKinds]*Cell
	rankBytes []*Cell // exchange bytes per rank, when WithRanks ran

	// engine and rankFamily let WithRanks intern late (rank count is
	// known at plan time, after construction).
	engine     string
	rankFamily *Family
}

// numKinds is the size of the per-kind event table. It names the last
// Kind on purpose: a kind added after KindCheckpoint without widening
// the table lands in no series, which TestRegistryRecorderCoversEveryKind
// catches.
const numKinds = int(KindCheckpoint) + 1

// Direction label values.
const (
	dirTDLabel = "td"
	dirBULabel = "bu"
)

// NewRegistryRecorder registers the engine-level families on reg (a
// no-op when another recorder already did) and interns the cells for
// one engine label. Construct once per engine, at wiring time.
func NewRegistryRecorder(reg *Registry, engine string) *RegistryRecorder {
	levels := reg.Counter("crossbfs_engine_levels_total",
		"Completed expansion levels, by engine and direction.", LabelEngine, LabelDir)
	disc := reg.Counter("crossbfs_engine_discovered_total",
		"Vertices discovered across levels, by engine and direction.", LabelEngine, LabelDir)
	frontier := reg.Histogram("crossbfs_engine_frontier_vertices",
		"Per-level frontier size |V|cq, by engine and direction.", SizeBuckets(), LabelEngine, LabelDir)
	wall := reg.Histogram("crossbfs_engine_level_seconds",
		"Per-level wall time, by engine and direction.", LatencyBuckets(), LabelEngine, LabelDir)
	events := reg.Counter("crossbfs_engine_events_total",
		"Telemetry events without a dedicated family (switch, sim_step, fault, ...), by engine and event kind.",
		LabelEngine, LabelKind)
	rr := &RegistryRecorder{
		traversals: reg.Counter("crossbfs_engine_traversals_total",
			"Traversals started, by engine.", LabelEngine).With(engine),
		errors: reg.Counter("crossbfs_engine_traversal_errors_total",
			"Traversals that ended in an error, by engine.", LabelEngine).With(engine),
		reuses: reg.Counter("crossbfs_engine_workspace_reuses_total",
			"Traversals run in a recycled workspace rather than a fresh one, by engine.", LabelEngine).With(engine),
		scans: reg.Counter("crossbfs_engine_scans_total",
			"Bottom-up adjacency entries scanned, by engine.", LabelEngine).With(engine),
		engine: engine,
		rankFamily: reg.Counter("crossbfs_engine_exchange_bytes_total",
			"Frontier-exchange payload bytes, by engine and rank.", LabelEngine, LabelRank),
	}
	for i, dir := range []string{dirTDLabel, dirBULabel} {
		rr.levels[i] = levels.With(engine, dir)
		rr.discovered[i] = disc.With(engine, dir)
		rr.frontier[i] = frontier.With(engine, dir)
		rr.levelWall[i] = wall.With(engine, dir)
	}
	for k := range rr.events {
		if kind := Kind(k); kind != KindTraversalStart && kind != KindLevel {
			rr.events[k] = events.With(engine, kind.String())
		}
	}
	return rr
}

// WithRanks interns rank cells 0..n-1 for the sharded exchange
// counter, so KindExchangeEnd events resolve their rank without a
// lookup. Call at wiring time, before serving events.
func (rr *RegistryRecorder) WithRanks(n int) *RegistryRecorder {
	rr.rankBytes = make([]*Cell, n)
	for i := 0; i < n; i++ {
		rr.rankBytes[i] = rr.rankFamily.With(rr.engine, strconv.Itoa(i))
	}
	return rr
}

// Event aggregates one telemetry event into the labeled cells: the
// traversal and level kinds into their dedicated families, every
// other kind into one indexed crossbfs_engine_events_total cell, plus
// the payload sums a family carries (errors, reuses, scans, exchange
// bytes).
func (rr *RegistryRecorder) Event(e Event) {
	switch e.Kind {
	case KindTraversalStart:
		rr.traversals.Inc()
		if e.Reused {
			rr.reuses.Inc()
		}
		return
	case KindLevel:
		d := 0
		if e.Dir == BottomUp {
			d = 1
		}
		rr.levels[d].Inc()
		rr.discovered[d].Add(float64(e.Discovered))
		rr.frontier[d].Observe(float64(e.FrontierVertices))
		rr.levelWall[d].Observe(e.WallDur.Seconds())
		if e.Scans != 0 {
			rr.scans.Add(float64(e.Scans))
		}
		return
	case KindTraversalEnd:
		if e.Detail != "" {
			rr.errors.Inc()
		}
	case KindExchangeEnd:
		if i := int(e.Index); i >= 0 && i < len(rr.rankBytes) {
			rr.rankBytes[i].Add(float64(e.Bytes))
		}
	default:
		// No payload a family carries: the events_total cell alone.
	}
	if int(e.Kind) < len(rr.events) {
		rr.events[e.Kind].Inc()
	}
}
