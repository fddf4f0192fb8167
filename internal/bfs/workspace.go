package bfs

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
)

// Workspace holds every per-traversal buffer a BFS engine needs:
// the result's parent/level maps, the direction and scan logs, both
// frontier queues, the per-worker output shards of the parallel
// top-down kernels, the edge-parallel degree prefix sum, the
// visited/frontier/next bitmaps, and the worker team that runs the
// levels large enough to fan out. Reusing one Workspace across
// traversals turns the entire working set into a reset, not a
// reallocation — the first-order optimization for repeated-traversal
// workloads (the Graph 500 64-root runner, the tuner's labelling
// sweep), where buffer lifecycle, not kernel arithmetic, dominates.
//
// Ownership rules:
//
//   - The caller acquires a Workspace (NewWorkspace, or WorkspacePool.Get)
//     and owns it until it releases it (WorkspacePool.Put).
//   - The engine resets it: every Engine.Run / RunWith begins by
//     re-preparing all buffers for the new (graph, source), so a
//     recycled Workspace can never leak prior traversal state.
//   - A Result produced with a Workspace aliases the workspace's
//     parent/level/direction storage. It is valid only until the
//     workspace's next traversal (or its return to a pool); callers
//     that need the maps afterwards must Clone the result first.
//   - A Workspace is not safe for concurrent use; concurrent roots
//     need one workspace each (RunMany handles this via its pool).
type Workspace struct {
	// Result storage lent to the current traversal.
	result     Result
	parent     []int32
	level      []int32
	directions []Direction
	stepScans  []int64
	exchanges  []ExchangeStats

	// Frontier queues. The runner ping-pongs between them level by
	// level, so both stabilize at the widest frontier seen.
	queue []int32
	spare []int32

	// Per-worker output shards for the parallel top-down kernels,
	// hoisted here so they are built once per traversal set, not once
	// per level.
	locals [][]int32

	// Edge-parallel degree prefix sum (one entry per frontier vertex).
	prefix []int64

	// visited is the claim bitmap; front/next are the bottom-up
	// frontier representations. dead marks the edgeless vertices the
	// bottom-up kernel has met this traversal; it is allocated at the
	// first bottom-up level, so workspaces that never run one do not
	// carry it.
	visited *bitmap.Bitmap
	front   *bitmap.Bitmap
	next    *bitmap.Bitmap
	dead    *bitmap.Bitmap

	// The parallel kernels' worker team and the inputs of the level it
	// is running.
	team team
	lvl  levelArgs
}

// levelArgs carries the current level's inputs to the parallel
// kernels' grain bodies. Each body is built once per workspace,
// captures only its levelArgs and reads the level through it, so a
// level that fans out allocates nothing. The builders are go:noinline:
// inlined into a kernel, the compiler clones the closure without
// inlining the bitmap reads inside it, which made the parallel
// bottom-up level about 30% slower.
type levelArgs struct {
	g       *graph.CSR
	r       *Result
	visited *bitmap.Bitmap
	dead    *bitmap.Bitmap
	front   *bitmap.Bitmap
	next    *bitmap.Bitmap
	queue   []int32
	prefix  []int64
	locals  [][]int32
	level   int32

	// Bottom-up reductions across workers.
	found, scans, edges atomic.Int64

	// Grain bodies: top-down, bottom-up, edge-parallel.
	td, bu, ep func(worker, start, end int)
}

// NewWorkspace returns a workspace prepared for graphs of up to n
// vertices. It grows transparently if later used on a larger graph.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// Capacity returns the vertex count the workspace can currently serve
// without reallocating.
func (w *Workspace) Capacity() int { return cap(w.parent) }

// ensure sizes every vertex-indexed buffer for an n-vertex graph,
// reusing backing arrays whenever they are large enough.
func (w *Workspace) ensure(n int) {
	if cap(w.parent) < n {
		w.parent = make([]int32, n)
		w.level = make([]int32, n)
	} else {
		w.parent = w.parent[:n]
		w.level = w.level[:n]
	}
	if w.visited == nil {
		w.visited = bitmap.New(n)
		w.front = bitmap.New(n)
		w.next = bitmap.New(n)
	} else {
		w.visited.Resize(n)
		w.front.Resize(n)
		w.next.Resize(n)
	}
	if w.dead != nil {
		w.dead.Resize(n)
	}
}

// deadMask returns the bottom-up kernel's edgeless-vertex mask,
// allocating it on first use. begin clears it.
func (w *Workspace) deadMask() *bitmap.Bitmap {
	if w.dead == nil {
		w.dead = bitmap.New(len(w.parent))
	}
	return w.dead
}

// begin resets the workspace for a traversal of g from source and
// returns the result shell backed by the workspace's buffers. This is
// the single reset point that guarantees pool hygiene: parent/level
// are refilled with NotVisited, the bitmaps (dead included) are
// cleared, and the logs and queues are truncated, so no prior
// traversal state survives.
func (w *Workspace) begin(g *graph.CSR, source int32) *Result {
	w.ensure(g.NumVertices())
	for i := range w.parent {
		w.parent[i] = NotVisited
		w.level[i] = NotVisited
	}
	w.parent[source] = source
	w.level[source] = 0
	w.result = Result{
		Source:     source,
		Parent:     w.parent,
		Level:      w.level,
		Directions: w.directions[:0],
		StepScans:  w.stepScans[:0],
		Exchanges:  w.exchanges[:0],
	}
	return &w.result
}

// retain stores a finished traversal's grown slices back into the
// workspace so their capacity carries over to the next traversal.
func (w *Workspace) retain(r *Result, queue, spare []int32) {
	w.directions = r.Directions
	w.stepScans = r.StepScans
	w.exchanges = r.Exchanges
	w.queue = queue
	w.spare = spare
}

// quiesce ends a traversal's use of the workspace: it joins the worker
// team and drops the last level's reference to the caller's graph, so a
// workspace between traversals holds neither a goroutine nor a graph.
// Every engine that fans out defers it.
func (w *Workspace) quiesce() {
	w.team.stop()
	w.lvl.g = nil
}

// workerShards returns k per-worker output slices, each truncated to
// zero length but keeping its capacity from earlier levels.
func (w *Workspace) workerShards(k int) [][]int32 {
	if k > len(w.locals) {
		grown := make([][]int32, k)
		copy(grown, w.locals)
		w.locals = grown
	}
	shards := w.locals[:k]
	for i := range shards {
		shards[i] = shards[i][:0]
	}
	return shards
}

// prefixBuf returns a length-k scratch slice for degree prefix sums.
func (w *Workspace) prefixBuf(k int) []int64 {
	if cap(w.prefix) < k {
		w.prefix = make([]int64, k)
	}
	return w.prefix[:k]
}

// Clone returns a deep copy of r that aliases no workspace storage, so
// it stays valid after the workspace moves on to another traversal.
func (r *Result) Clone() *Result {
	c := *r
	c.Parent = append([]int32(nil), r.Parent...)
	c.Level = append([]int32(nil), r.Level...)
	c.Directions = append([]Direction(nil), r.Directions...)
	c.StepScans = append([]int64(nil), r.StepScans...)
	c.Exchanges = append([]ExchangeStats(nil), r.Exchanges...)
	return &c
}

// WorkspacePool is a size-keyed, sync.Pool-backed cache of Workspaces.
// Workspaces are bucketed by the power-of-two class of their vertex
// capacity, so a pool serving mixed graph sizes (the tuner's M/N sweep
// crosses scales) hands each request a workspace that already fits —
// Get never returns a workspace that must shrink-copy, and Put files a
// grown workspace under its new class. The zero value is ready to use.
type WorkspacePool struct {
	// classes[c] caches workspaces whose capacity class is c, i.e.
	// capacity in (2^(c-1), 2^c]. 64 classes cover any int.
	classes [64]sync.Pool
}

// DefaultPool is the process-wide pool used by RunMany and the
// workspace-aware helpers when the caller does not supply one.
var DefaultPool = &WorkspacePool{}

// sizeClass returns the smallest c with 1<<c >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a workspace prepared for an n-vertex graph, recycling a
// pooled one when available.
func (p *WorkspacePool) Get(n int) *Workspace {
	c := sizeClass(n)
	if ws, ok := p.classes[c].Get().(*Workspace); ok {
		ws.ensure(n)
		return ws
	}
	// Allocate at the full class capacity so every future Get in this
	// class is served without growing.
	return NewWorkspace(1 << c)
}

// Put returns a workspace to the pool for reuse. The workspace must
// not be used (nor any Result still aliasing it read) after Put.
func (p *WorkspacePool) Put(ws *Workspace) {
	if ws == nil {
		return
	}
	p.classes[sizeClass(ws.Capacity())].Put(ws)
}
