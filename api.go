package crossbfs

import (
	"context"
	"fmt"
	"io"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/fault"
	"crossbfs/internal/graph"
	"crossbfs/internal/graph500"
	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
	"crossbfs/internal/tuner"
)

// Re-exported types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Graph is an immutable CSR graph.
	Graph = graph.CSR
	// Edge is a directed edge for BuildGraph.
	Edge = graph.Edge
	// RMATParams parameterize the Graph 500 Kronecker generator.
	RMATParams = rmat.Params
	// Result is a BFS traversal's predecessor and level maps.
	Result = bfs.Result
	// Trace is the per-level work profile of a traversal.
	Trace = bfs.Trace
	// Direction selects the top-down or bottom-up kernel.
	Direction = bfs.Direction
	// Policy chooses a direction before each BFS level.
	Policy = bfs.Policy
	// Arch is a modeled execution platform.
	Arch = archsim.Arch
	// Link is a modeled interconnect between platforms.
	Link = archsim.Link
	// Plan schedules each BFS level onto a platform and direction.
	Plan = core.Plan
	// Timing is a plan's simulated cost breakdown.
	Timing = core.Timing
	// Model is a trained switching-point predictor.
	Model = tuner.Model
	// SwitchPoint is an (M, N) threshold pair for the Fig. 4 rule.
	SwitchPoint = tuner.SwitchPoint
	// TEPSReport is a Graph 500-style benchmark summary.
	TEPSReport = graph500.RunResult
	// Engine is a named, reusable BFS kernel configuration. All kernels
	// (serial, top-down, bottom-up, edge-parallel, hybrid, adaptive)
	// implement it; see NewTopDownEngine and friends.
	Engine = bfs.Engine
	// Workspace holds the pooled per-traversal buffers an Engine runs
	// in. Results returned from Engine.Run alias the workspace; Clone
	// them before reusing it.
	Workspace = bfs.Workspace
	// WorkspacePool recycles Workspaces by size class; its zero value
	// is ready to use.
	WorkspacePool = bfs.WorkspacePool
	// ManyOptions configures BFSMany / bfs.RunMany batches.
	ManyOptions = bfs.ManyOptions
	// Fabric is a modeled rank-to-rank interconnect with collective
	// costs (ring all-gather, all-to-all, all-reduce).
	Fabric = archsim.Fabric
	// ExchangeStats is one level's cross-rank communication volume from
	// a sharded traversal (Result.Exchanges).
	ExchangeStats = bfs.ExchangeStats
	// ShardedPlan prices the partitioned engine on Ranks modeled
	// devices joined by a Fabric.
	ShardedPlan = core.ShardedPlan
)

// Direction values.
const (
	TopDown  = bfs.TopDown
	BottomUp = bfs.BottomUp
)

// ---- Graphs ----

// GenerateRMAT builds the paper's R-MAT graph: 2^scale vertices,
// edgeFactor*2^scale generated edges, Graph 500 probabilities
// (A=0.57, B=0.19, C=0.19, D=0.05), symmetrized and deduplicated.
func GenerateRMAT(scale, edgeFactor int, seed uint64) (*Graph, error) {
	p := rmat.DefaultParams(scale, edgeFactor)
	p.Seed = seed
	return rmat.Generate(p)
}

// GenerateRMATWith builds an R-MAT graph with full parameter control.
func GenerateRMATWith(p RMATParams) (*Graph, error) { return rmat.Generate(p) }

// BuildGraph converts an undirected edge list into a CSR graph
// (symmetrized, self-loops dropped, parallel edges deduplicated).
func BuildGraph(numVertices int, edges []Edge) (*Graph, error) {
	return graph.Build(numVertices, edges, graph.BuildOptions{Symmetrize: true})
}

// LoadGraph reads a graph saved with SaveGraph (or cmd/rmatgen).
func LoadGraph(path string) (*Graph, error) { return graph.Load(path) }

// SaveGraph writes the graph in the binary CSR container format.
func SaveGraph(g *Graph, path string) error { return g.Save(path) }

// ---- BFS execution (real kernels on the host) ----

// BFS runs the direction-optimizing hybrid with a reasonable default
// switching point (M=N=64) and full parallelism, returning validated
// predecessor and level maps.
func BFS(g *Graph, source int32) (*Result, error) {
	return bfs.Hybrid(g, source, 64, 64, 0)
}

// BFSTopDown runs the pure top-down baseline (paper Algorithm 1).
func BFSTopDown(g *Graph, source int32) (*Result, error) {
	return bfs.RunTopDown(g, source, 0)
}

// BFSBottomUp runs the pure bottom-up baseline (paper Algorithm 2).
func BFSBottomUp(g *Graph, source int32) (*Result, error) {
	return bfs.RunBottomUp(g, source, 0)
}

// BFSHybrid runs the combination with explicit (M, N) thresholds:
// bottom-up when |E|cq >= |E|/m or |V|cq >= |V|/n (paper Fig. 4).
func BFSHybrid(g *Graph, source int32, m, n float64) (*Result, error) {
	return bfs.Hybrid(g, source, m, n, 0)
}

// NewWorkspace allocates a traversal workspace sized for g, for
// callers that manage reuse themselves instead of going through a
// WorkspacePool.
func NewWorkspace(g *Graph) *Workspace { return bfs.NewWorkspace(g.NumVertices()) }

// NewDefaultEngine returns the engine BFS uses: the hybrid combination
// with the default (M=N=64) switching point and full parallelism.
func NewDefaultEngine() Engine { return bfs.DefaultEngine() }

// NewTopDownEngine returns the pure top-down kernel as an Engine.
// workers <= 0 selects GOMAXPROCS.
func NewTopDownEngine(workers int) Engine { return bfs.TopDownEngine(workers) }

// NewBottomUpEngine returns the pure bottom-up kernel as an Engine.
func NewBottomUpEngine(workers int) Engine { return bfs.BottomUpEngine(workers) }

// NewHybridEngine returns the (M, N)-switched combination as an Engine.
func NewHybridEngine(m, n float64, workers int) Engine { return bfs.HybridEngine(m, n, workers) }

// NewShardedEngine returns the partitioned engine: ranks goroutine
// "ranks" each own one 1D vertex shard, exchange compressed frontier
// state once per level, and switch direction collectively under the
// (m, n) rule. Results carry per-level ExchangeStats in
// Result.Exchanges.
func NewShardedEngine(ranks int, m, n float64) Engine { return bfs.NewShardedEngine(ranks, m, n) }

// BFSWith runs one traversal through an Engine in a caller-held
// workspace. ws may be nil (a throwaway workspace is allocated); when
// it is reused across calls the traversal allocates nothing in steady
// state. The Result aliases ws — Clone it before the next run if it
// must survive.
func BFSWith(g *Graph, source int32, e Engine, ws *Workspace) (*Result, error) {
	if e == nil {
		e = bfs.DefaultEngine()
	}
	return e.Run(g, source, ws)
}

// BFSMany runs one traversal per root and returns durable (cloned)
// results in root order. Workspaces are drawn from the shared pool and
// the batch runs roots concurrently; see ManyOptions for control over
// the engine, concurrency, and pool.
func BFSMany(g *Graph, roots []int32, opts ManyOptions) ([]*Result, error) {
	return bfs.RunMany(g, roots, opts)
}

// BFSEach is the streaming form of BFSMany: fn observes each root's
// Result without the per-root Clone. The Result passed to fn aliases a
// pooled workspace and is only valid during the callback.
func BFSEach(g *Graph, roots []int32, opts ManyOptions, fn func(i int, root int32, r *Result) error) error {
	return bfs.RunManyFunc(g, roots, opts, fn)
}

// ---- Cancellation, deadlines, and fault tolerance ----

// Fault-tolerance surface. A FaultSchedule is a deterministic,
// seed-driven set of injected faults (device crashes, transient link
// errors, kernel slowdowns); ResilientOptions carry it into the
// executor together with the retry policy. See ExecuteResilient.
type (
	// FaultSchedule is a deterministic fault-injection registry.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scheduled fault.
	FaultEvent = fault.Event
	// FaultError is the typed error returned when the degradation
	// ladder is exhausted; match it with errors.As.
	FaultError = fault.Error
	// FaultRecord documents one fault event a resilient execution
	// survived and the action taken.
	FaultRecord = core.FaultRecord
	// RecoveryStats summarizes the fault-tolerance work of one sharded
	// traversal (Result.Recovery): ranks fenced, recoveries replayed,
	// exchange retries, checkpoint volume.
	RecoveryStats = bfs.RecoveryStats
)

// ResilientOptions configure fault-tolerant plan execution: the fault
// schedule, its retry policy (<= 0 selects 3 retries and a 50us
// backoff doubling up to 5ms), the host traversal's parallelism
// (0 = GOMAXPROCS), and telemetry.
type ResilientOptions struct {
	Schedule                 *FaultSchedule
	MaxRetries               int
	RetryBackoff, BackoffCap float64 // seconds
	Workers                  int
	Recorder                 Recorder
	TraversalID              uint64 // 0 draws a fresh ID
}

// exec returns the executor options for o, pricing migrations on the
// PCIe link.
func (o ResilientOptions) exec() core.ExecOptions {
	return core.ExecOptions{
		Link: archsim.PCIe(), Schedule: o.Schedule, MaxRetries: o.MaxRetries,
		RetryBackoff: o.RetryBackoff, BackoffCap: o.BackoffCap,
		Recorder: o.Recorder, TraversalID: o.TraversalID,
		Workers: o.Workers,
	}
}

// ParseFaultSchedule builds a schedule from the CLI grammar, e.g.
// "crash:GPU@4;transient:0.2;slow:CPU@2x1.5", seeded for reproducible
// transient-error draws.
func ParseFaultSchedule(spec string, seed uint64) (*FaultSchedule, error) {
	return fault.Parse(spec, seed)
}

// BFSContext is BFS under a context: the traversal observes ctx at
// every level boundary (and grain boundary in the parallel kernels)
// and returns ctx.Err() promptly after cancellation or deadline
// expiry. On error the partially-traversed state is discarded.
func BFSContext(ctx context.Context, g *Graph, source int32) (*Result, error) {
	return bfs.RunContext(ctx, g, source, bfs.Options{Policy: bfs.MN{M: 64, N: 64}})
}

// BFSWithContext is BFSWith under a context; see BFSContext for the
// cancellation contract and BFSWith for workspace ownership.
func BFSWithContext(ctx context.Context, g *Graph, source int32, e Engine, ws *Workspace) (*Result, error) {
	if e == nil {
		e = bfs.DefaultEngine()
	}
	return e.RunContext(ctx, g, source, ws)
}

// BFSManyContext is BFSMany under a context: cancellation stops the
// dispatch of further roots, in-flight traversals stop at their next
// level boundary, and ctx.Err() is returned.
func BFSManyContext(ctx context.Context, g *Graph, roots []int32, opts ManyOptions) ([]*Result, error) {
	return bfs.RunManyContext(ctx, g, roots, opts)
}

// BFSEachContext is BFSEach under a context; each index is delivered
// at most once, and the batch fails fast on the first error or cancel.
func BFSEachContext(ctx context.Context, g *Graph, roots []int32, opts ManyOptions, fn func(i int, root int32, r *Result) error) error {
	return bfs.RunManyFuncContext(ctx, g, roots, opts, fn)
}

// ExecuteResilient runs a plan under a context and a fault schedule:
// real, validated host kernels drive the traversal while the simulator
// prices each step, degrading through the fault ladder — retry
// transient link errors with capped backoff, replan crashed devices'
// steps onto survivors, fail with a typed *FaultError only when no
// device survives. The Timing reports Retries, Replans, and every
// fault event.
func ExecuteResilient(ctx context.Context, g *Graph, source int32, plan Plan, opts ResilientOptions) (*Result, *Timing, error) {
	res, _, timing, err := core.Execute(ctx, g, source, plan, opts.exec())
	return res, timing, err
}

// ExecuteShardedResilient runs the partitioned engine under a rank
// fault schedule: crashes, lag, and dropped collectives are injected
// at the exchange seams, survivors absorb a dead rank's shard and
// replay the level from per-level frontier checkpoints, and the
// returned Result (Result.Recovery reports the fault-tolerance work)
// is validated against the same Graph 500 rules as a clean run. The
// Timing prices the degraded traversal; if no survivor set can finish,
// the traversal replans onto a single un-sharded device before a typed
// *FaultError is the last resort.
func ExecuteShardedResilient(ctx context.Context, g *Graph, source int32, plan ShardedPlan, opts ResilientOptions) (*Result, *Timing, error) {
	return core.ExecuteSharded(ctx, g, source, plan, opts.exec())
}

// ---- Observability ----

// Telemetry surface. A Recorder receives one flat TelemetryEvent per
// per-level/per-step occurrence from every engine, the simulator, the
// resilient executor, and the RunMany dispatcher; RegistryRecorder
// aggregates them into labeled counters and histograms, and
// TraceWriter streams them as Chrome trace-event JSON for
// chrome://tracing or Perfetto. See OBSERVABILITY.md for the event
// taxonomy and the trace-file schema.
type (
	// Recorder consumes telemetry events; implementations must be
	// cheap and, when shared across traversals, concurrency-safe.
	Recorder = obs.Recorder
	// TelemetryEvent is the single flat event type all instrumentation
	// emits.
	TelemetryEvent = obs.Event
	// TraceWriter encodes events as Chrome trace-event JSON.
	TraceWriter = obs.TraceWriter
	// StreamWriter is the serving-grade trace sink: same byte format as
	// TraceWriter, but encoded incrementally through a bounded buffer
	// that drops events under backpressure instead of growing.
	StreamWriter = obs.StreamWriter
	// StreamStats reports a StreamWriter's drop and high-water counters.
	StreamStats = obs.StreamStats
	// Sampler keeps 1-in-K traversals, whole, by TraversalID.
	Sampler = obs.Sampler
	// FlightRecorder retains the last N complete traversals in memory
	// for post-hoc dumps (obs.Ring).
	FlightRecorder = obs.Ring
	// FlightRecorderStats reports a FlightRecorder's retention counters.
	FlightRecorderStats = obs.RingStats
	// TraceSummary is the structural digest ValidateTrace returns.
	TraceSummary = obs.TraceSummary
)

// Dimensional metrics and SLO surface. A MetricsRegistry holds
// label-aware counter/gauge/histogram families rendered in Prometheus
// text exposition format v0.0.4; an SLOEngine evaluates declarative
// latency/error objectives over those families with multi-window burn
// rates. See OBSERVABILITY.md §dimensional metrics.
type (
	// MetricsRegistry is the label-aware metric registry (obs.Registry).
	MetricsRegistry = obs.Registry
	// MetricFamily is one named family of labeled cells.
	MetricFamily = obs.Family
	// MetricCell is one pre-interned label combination; Inc/Add/Set/
	// Observe on a Cell are lock-free atomics.
	MetricCell = obs.Cell
	// RegistryRecorder aggregates telemetry events into a registry's
	// dimensional families; it is the only metrics aggregator.
	RegistryRecorder = obs.RegistryRecorder
	// SLOObjective is one parsed declarative objective
	// ("oltp p99 < 2ms over 5m", "error ratio < 0.1% over 30m").
	SLOObjective = obs.Objective
	// SLOEngine evaluates objectives with multi-window burn rates and
	// fires a breach hook under a cooldown (obs.SLO).
	SLOEngine = obs.SLO
	// SLOObjectiveSource binds a parsed objective to the counter
	// source the engine samples each tick.
	SLOObjectiveSource = obs.SLOObjective
	// SLOEngineOptions tunes the evaluator (burn threshold, short
	// window divisor, breach cooldown and hook); zero values take the
	// defaults.
	SLOEngineOptions = obs.SLOOptions
	// SLOVerdict is one objective's most recent evaluation.
	SLOVerdict = obs.Verdict
	// ExpositionStats summarizes a validated exposition page.
	ExpositionStats = obs.ExpoStats
)

// NopRecorder is the explicit no-op Recorder: passing it (or nil) to
// any observed entry point keeps the traversal on the zero-allocation
// fast path, with all per-event work compiled out behind one branch.
var NopRecorder = obs.Nop

// NewTraceWriter returns a recorder that streams Chrome trace-event
// JSON to w. Close flushes the file; the output is loadable in
// chrome://tracing and https://ui.perfetto.dev.
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewTraceWriter(w) }

// NewStreamWriter returns the streaming trace sink over w with the
// default buffer budget; NewStreamWriterSize sets it explicitly. The
// output is byte-compatible with NewTraceWriter when no events are
// dropped; drops are counted in Stats and noted in the trace metadata.
func NewStreamWriter(w io.Writer) *StreamWriter { return obs.NewStreamWriter(w) }

// NewStreamWriterSize is NewStreamWriter with an explicit buffer cap in
// bytes.
func NewStreamWriterSize(w io.Writer, bufCap int) *StreamWriter {
	return obs.NewStreamWriterSize(w, bufCap)
}

// NewSampler wraps next so only 1-in-k traversals reach it — whole:
// the keep/drop decision is a pure seeded hash of the TraversalID, so
// every event of a kept traversal (including resilient-ladder retries
// under the same ID) lands in the sample, and none of a dropped one.
func NewSampler(next Recorder, k int, seed uint64) *Sampler {
	return obs.NewSampler(next, k, seed)
}

// NewFlightRecorder returns an in-memory ring retaining the last keep
// complete traversals (capped at maxEvents events each; 0 selects the
// defaults). Dump the retained traversals with WriteTrace after a
// fault or on SIGQUIT.
func NewFlightRecorder(keep, maxEvents int) *FlightRecorder {
	return obs.NewRing(keep, maxEvents)
}

// MultiRecorder fans events out to several recorders in order — e.g.
// one RegistryRecorder and one TraceWriter on the same run.
func MultiRecorder(recs ...Recorder) Recorder { return obs.Multi(recs...) }

// ValidateTrace parses Chrome trace-event JSON (as produced by
// TraceWriter) and checks the structural invariants documented in
// OBSERVABILITY.md, returning a summary with per-timeline direction
// sequences. cmd/tracecheck is its CLI form.
func ValidateTrace(data []byte) (*TraceSummary, error) { return obs.ValidateTrace(data) }

// NewMetricsRegistry returns an empty dimensional metric registry.
// Register families with Counter/Gauge/Histogram, pre-intern label
// combinations with With, and render the page with WriteExposition.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewRegistryRecorder returns a Recorder that aggregates telemetry
// events into reg's dimensional families, labeling each sample with
// the given engine name. Every event kind lands in a series, and the
// per-event path is atomic adds on pre-interned cells (no
// allocation).
func NewRegistryRecorder(reg *MetricsRegistry, engine string) *RegistryRecorder {
	return obs.NewRegistryRecorder(reg, engine)
}

// NewSLOEngine returns an evaluator over the given objective/source
// bindings. Drive it with Tick at the poll interval; Tick(now) is
// pure in now, so tests replay synthetic timelines.
func NewSLOEngine(objs []SLOObjectiveSource, opt SLOEngineOptions) *SLOEngine {
	return obs.NewSLO(objs, opt)
}

// ParseSLOObjective parses one declarative objective spec — either
// "<selector> p<q> < <latency> over <window>" or
// "error ratio < <pct>% over <window>" — into an SLOObjective.
func ParseSLOObjective(spec string) (SLOObjective, error) { return obs.ParseObjective(spec) }

// ValidateExposition checks that r holds well-formed Prometheus text
// exposition v0.0.4 — typed families carry HELP and TYPE, samples of
// one family are contiguous, histograms end in a +Inf bucket with
// monotone cumulative counts. cmd/expcheck is its CLI form.
func ValidateExposition(r io.Reader) (ExpositionStats, error) { return obs.ValidateExposition(r) }

// HistogramQuantile reconstructs the q-quantile (0 < q <= 1) from
// cumulative le-buckets as scraped off an exposition page, returning
// the smallest bucket boundary covering the target rank.
func HistogramQuantile(q float64, buckets []obs.HistBucket) float64 {
	return obs.HistogramQuantile(q, buckets)
}

// BFSObserved is BFSWithContext with telemetry: every level emits one
// event to rec (traversal bracket, per-level counts, direction
// switches). rec == nil or NopRecorder costs nothing.
func BFSObserved(ctx context.Context, g *Graph, source int32, e Engine, ws *Workspace, rec Recorder) (*Result, error) {
	if e == nil {
		e = bfs.DefaultEngine()
	}
	return e.RunObserved(ctx, g, source, ws, rec)
}

// SimulateObserved is Simulate with telemetry on the simulated clock:
// the real host traversal emits wall-clock level events and the plan
// pricing emits per-step kernel slices and handoff transfers, so a
// TraceWriter shows the modeled cross-architecture timeline.
func SimulateObserved(ctx context.Context, g *Graph, source int32, plan Plan, rec Recorder) (*Timing, error) {
	_, _, timing, err := core.Execute(ctx, g, source, plan, ResilientOptions{Recorder: rec}.exec())
	return timing, err
}

// ValidateBFS checks a result against the Graph 500 validation rules.
func ValidateBFS(g *Graph, r *Result) error { return bfs.Validate(g, r) }

// ComputeTrace derives the per-level work profile from a traversal.
func ComputeTrace(g *Graph, r *Result) (*Trace, error) { return bfs.ComputeTrace(g, r) }

// ---- Architectures and plans ----

// CPU returns the paper's 8-core Sandy Bridge model (Table II).
func CPU() Arch { return archsim.SandyBridge() }

// GPU returns the paper's NVIDIA Kepler K20x model (Table II).
func GPU() Arch { return archsim.KeplerK20x() }

// MIC returns the paper's 60-core Knights Corner model (Table II).
func MIC() Arch { return archsim.KnightsCorner() }

// PCIe returns the default CPU<->GPU interconnect model.
func PCIe() Link { return archsim.PCIe() }

// SMPFabric returns the shared-memory fabric model for n ranks (the
// default machine for the sharded engine's priced exchanges).
func SMPFabric(n int) *Fabric { return archsim.SMP(n) }

// PCIeFabric returns a fabric of n ranks joined pairwise by PCIe.
func PCIeFabric(n int) *Fabric { return archsim.PCIeFabric(n) }

// EthernetFabric returns a 10GbE fabric for n ranks — the
// distributed-memory end of the communication-cost spectrum.
func EthernetFabric(n int) *Fabric { return archsim.Eth10G(n) }

// SimulateSharded runs the partitioned engine for real and prices the
// traversal on plan's modeled machine: per-level kernel times on
// 1/Ranks of the work plus the fabric collectives carrying the
// measured exchange volumes.
func SimulateSharded(ctx context.Context, g *Graph, source int32, plan ShardedPlan) (*Result, *Timing, error) {
	return core.ExecuteSharded(ctx, g, source, plan, core.ExecOptions{})
}

// NewBaseline returns the pure single-direction plan on arch
// (e.g. GPUTD).
func NewBaseline(arch Arch, dir Direction) Plan {
	return core.FixedDirection(arch, dir)
}

// NewCombination returns the single-architecture direction-optimizing
// combination (paper: CPUCB / GPUCB / MICCB).
func NewCombination(arch Arch, m, n float64) Plan {
	return core.Combination(arch, m, n)
}

// NewCrossPlan returns the paper's Algorithm 3: top-down on host while
// the frontier is small by (m1, n1), then a (m2, n2)-switched
// combination on the coprocessor, never returning to the host.
func NewCrossPlan(host, coprocessor Arch, m1, n1, m2, n2 float64) Plan {
	return core.CrossPlan{
		Host: host, Coprocessor: coprocessor,
		M1: m1, N1: n1, M2: m2, N2: n2,
	}
}

// ---- Simulation ----

// Simulate traces one BFS from source (real traversal on the host)
// and prices the plan's every level on the architecture models, using
// the PCIe link for transfers. A plan that cannot be priced from the
// trace alone (a ShardedPlan, which needs the partitioned engine's
// exchange volumes — see SimulateSharded — or an invalid MultiCross)
// is an error.
func Simulate(g *Graph, source int32, plan Plan) (*Timing, error) {
	tr, err := bfs.TraceFrom(g, source)
	if err != nil {
		return nil, err
	}
	return core.Price(tr, plan, core.PriceOptions{Link: archsim.PCIe()})
}

// SimulateTrace prices a plan on an existing trace over a specific
// link — the cheap path when comparing many plans on one traversal.
// It returns nil where Simulate would return an error.
func SimulateTrace(tr *Trace, plan Plan, link Link) *Timing {
	return core.Simulate(tr, plan, link)
}

// BenchmarkTEPS runs a Graph 500-style benchmark: numRoots sampled
// search keys, a validated BFS per key priced on the plan, harmonic-
// mean TEPS aggregate.
func BenchmarkTEPS(g *Graph, plan Plan, numRoots int) (*TEPSReport, error) {
	return graph500.Run(g, plan, archsim.PCIe(), numRoots, 1)
}

// ---- Adaptive tuning (the paper's contribution) ----

// TrainDefaultModel builds the default training corpus (graphs crossed
// with architecture pairs, labelled by exhaustive search — paper
// Fig. 6) and trains the switching-point regression model. progress
// may be nil.
func TrainDefaultModel(progress func(done, total int)) (*Model, error) {
	samples, err := tuner.BuildCorpus(tuner.DefaultCorpusSpec(), progress)
	if err != nil {
		return nil, err
	}
	return tuner.Train(samples, tuner.TrainOptions{})
}

// LoadModel reads a model saved with Model.Save (or cmd/trainer).
func LoadModel(path string) (*Model, error) { return tuner.LoadModel(path) }

// PredictSwitchPoint predicts the best (M, N) for traversing a graph
// with top-down on tdArch and bottom-up on buArch — the paper's
// RegressionModel(GI, ArchTD, ArchBU) call in Algorithm 3. The graph
// is described by its generation parameters plus the built CSR.
func PredictSwitchPoint(m *Model, p RMATParams, g *Graph, tdArch, buArch Arch) SwitchPoint {
	return m.Predict(tuner.Sample{
		Graph: tuner.GraphInfoFor(p, g),
		TD:    tuner.ArchInfoOf(tdArch),
		BU:    tuner.ArchInfoOf(buArch),
	})
}

// NewAdaptiveCrossPlan assembles Algorithm 3 end to end: predict
// (M1, N1) for the host/coprocessor boundary and (M2, N2) for the
// on-coprocessor combination, then return the cross plan.
func NewAdaptiveCrossPlan(m *Model, p RMATParams, g *Graph, host, coprocessor Arch) (Plan, error) {
	if m == nil {
		return nil, fmt.Errorf("crossbfs: nil model") //lint:fault-ok argument validation, not a runtime fault; callers test for nil before dispatch
	}
	boundary := PredictSwitchPoint(m, p, g, host, coprocessor)
	onCop := PredictSwitchPoint(m, p, g, coprocessor, coprocessor)
	return NewCrossPlan(host, coprocessor, boundary.M, boundary.N, onCop.M, onCop.N), nil
}
