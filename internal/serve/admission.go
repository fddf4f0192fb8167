package serve

import (
	"context"
	"runtime"
	"sync/atomic"

	"crossbfs/internal/obs"
)

// gate is the admission controller: maxConcurrent execution slots plus
// a bounded count of waiters. The fast path — a free slot, no queueing
// — is one channel receive and two atomic adds; the overload path
// rejects instead of queueing without bound, which is what keeps p999
// finite when offered load exceeds capacity (the open-loop collapse
// bfsload is built to demonstrate).
type gate struct {
	slots chan struct{}
	depth int64
	// queued is the current number of waiters; running mirrors the
	// occupied slots for the /healthz gauge.
	queued  atomic.Int64
	running atomic.Int64
}

func newGate(maxConcurrent, depth int) *gate {
	if maxConcurrent <= 0 {
		maxConcurrent = runtime.GOMAXPROCS(0)
	}
	g := &gate{slots: make(chan struct{}, maxConcurrent), depth: int64(depth)}
	for i := 0; i < maxConcurrent; i++ {
		g.slots <- struct{}{}
	}
	return g
}

// enter acquires an execution slot, waiting in the bounded queue if
// none is free. It returns queueFull() when the queue is at depth and
// a runError when the context expires while waiting — a request that
// spends its whole deadline queued is a 504 like any other timeout.
// The admitted path is allocation-free (one channel receive, two
// atomic adds); only rejections construct a typed error, which is why
// this is deliberately not a //lint:hot root.
func (g *gate) enter(ctx context.Context) *Error {
	select {
	case <-g.slots:
		g.running.Add(1)
		return nil
	default:
	}
	if g.queued.Add(1) > g.depth {
		g.queued.Add(-1)
		return queueFull()
	}
	defer g.queued.Add(-1)
	select {
	case <-g.slots:
		g.running.Add(1)
		return nil
	case <-ctx.Done():
		return runError(ctx.Err())
	}
}

// leave releases the slot taken by a successful enter.
func (g *gate) leave() {
	g.running.Add(-1)
	g.slots <- struct{}{}
}

// Admission-outcome reason labels, in the order serveStats interns
// their cells. The vocabulary follows the *Error codes: "unavailable"
// covers 503s (shutting_down, canceled), "deadline" the 504s,
// "queue_full" the 429s.
const (
	reasonOK = iota
	reasonQueueFull
	reasonDeadline
	reasonUnavailable
	reasonClientError
	reasonServerError
	reasonCount
)

var reasonLabels = [reasonCount]string{
	reasonOK:          "ok",
	reasonQueueFull:   "queue_full",
	reasonDeadline:    "deadline",
	reasonUnavailable: "unavailable",
	reasonClientError: "client_error",
	reasonServerError: "server_error",
}

// Query-kind indices for the pre-interned latency cells.
const (
	kindIdxReach = iota
	kindIdxPath
	kindIdxKHop
	kindIdxMulti
	kindCount
)

var kindLabels = [kindCount]string{KindReach, KindPath, KindKHop, KindMulti}

// kindIndex maps a query kind to its cell index, -1 for unknown kinds
// (which never produce OK responses, so they never observe latency).
func kindIndex(kind string) int {
	switch kind {
	case KindReach:
		return kindIdxReach
	case KindPath:
		return kindIdxPath
	case KindKHop:
		return kindIdxKHop
	case KindMulti:
		return kindIdxMulti
	default:
		return -1
	}
}

// classOf buckets kinds into the workload classes bfsload drives:
// point lookups are OLTP, neighborhood sweeps and batches OLAP.
func classOf(kind string) string {
	switch kind {
	case KindReach, KindPath:
		return "oltp"
	default:
		return "olap"
	}
}

// serveStats holds the request-level cells the engine event stream
// does not cover: service-time latency by class and kind, and
// admission outcomes by reason — the families the exposition page and
// the SLO engine read. They are pre-resolved, so the hot path stays a
// couple of atomic adds per request.
type serveStats struct {
	latency  [kindCount]*obs.Cell   // crossbfs_query_latency_seconds{class,kind}
	outcomes [reasonCount]*obs.Cell // crossbfs_admission_outcomes_total{reason}
}

// newServeStats interns the request cells on reg and registers the
// admission gauges over g. The latency bounds are the power-of-two
// microsecond set (expressed in seconds), which is what lets client-
// and server-side quantiles agree to within one bucket.
func newServeStats(reg *obs.Registry, g *gate) *serveStats {
	t := &serveStats{}
	lat := reg.Histogram("crossbfs_query_latency_seconds",
		"Query service time in seconds (admission wait + traversal + shaping), by workload class and kind.",
		obs.LatencyBuckets(), obs.LabelClass, obs.LabelKind)
	for i, kind := range kindLabels {
		t.latency[i] = lat.With(classOf(kind), kind)
	}
	out := reg.Counter("crossbfs_admission_outcomes_total",
		"Completed requests by admission outcome.", obs.LabelReason)
	for i, reason := range reasonLabels {
		t.outcomes[i] = out.With(reason)
	}
	reg.Gauge("crossbfs_serve_inflight", "Requests holding an execution slot.").
		WithFunc(func() float64 { return float64(g.running.Load()) })
	reg.Gauge("crossbfs_serve_queued", "Requests waiting in the admission queue.").
		WithFunc(func() float64 { return float64(g.queued.Load()) })
	return t
}

// reasonFor maps an HTTP status to its outcome label index.
func reasonFor(status int) int {
	switch {
	case status < 300:
		return reasonOK
	case status == 429:
		return reasonQueueFull
	case status == 504:
		return reasonDeadline
	case status == 503:
		return reasonUnavailable
	case status >= 500:
		return reasonServerError
	default:
		return reasonClientError
	}
}

func (t *serveStats) observeOutcome(kind string, status int, elapsedUS int64) {
	r := reasonFor(status)
	if i := kindIndex(kind); r == reasonOK && i >= 0 {
		t.latency[i].Observe(float64(elapsedUS) * 1e-6)
	}
	t.outcomes[r].Inc()
}
