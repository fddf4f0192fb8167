package bfs

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
)

// PanicError wraps a panic recovered inside a traversal — a worker
// goroutine or the level loop itself. Converting panics to errors is
// part of the fault-containment contract: a bug (or an injected
// fault) in one traversal must fail that traversal, not kill a
// process serving many.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("bfs: traversal panicked: %v", e.Value)
}

// recoverToError converts a recovered panic value into a *PanicError,
// capturing the stack. Call as: defer func() { recoverToError(recover(), &err) }().
func recoverToError(v any, dst *error) {
	if v == nil {
		return
	}
	*dst = &PanicError{Value: v, Stack: debug.Stack()}
}

// resolveWorkers maps the user-facing worker count (0 = automatic) to
// an effective one, never exceeding the amount of work available.
func resolveWorkers(requested, workItems int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > workItems {
		w = workItems
	}
	if w < 1 {
		w = 1
	}
	return w
}

// fanOut is the one place a level's parallelism is decided. A level of
// n items cut into grain-sized blocks fans out only when it has at least
// minFanGrains blocks; below that it reports one grain on one worker,
// and the kernels run their serial loop. Above it the level runs on
// resolveWorkers(requested, blocks) workers. The kernels, parallelGrains
// and the level events all call it, so telemetry reports the fan-out
// that really ran.
func fanOut(n, grain, requested int) (grains, workers int) {
	grains = (n + grain - 1) / grain
	if grains < minFanGrains {
		return 1, 1
	}
	workers = resolveWorkers(requested, grains)
	if workers == 1 {
		return 1, 1
	}
	return grains, workers
}

// parallelGrains runs fn over [0, n) split into grain-sized blocks
// claimed dynamically by workers — dynamic scheduling because R-MAT
// frontiers have wildly skewed per-vertex work (a handful of hub
// vertices own most edges). The blocks run on t, the traversal's worker
// team, as wide as fanOut allows: the caller alone (worker 0, in block
// order) below the threshold, the caller plus helpers above it.
//
// Cancellation and containment contract: workers observe ctx between
// grain claims, so a cancel is honored within one grain of work; a
// panicking grain is recovered and surfaced as a *PanicError. In both
// cases every helper that joined the level has left it by the time
// parallelGrains returns, so the caller's buffers are quiescent — safe
// to reset and return to a pool once the team is stopped.
//
// The first stop cause wins: ctx.Err() for cancellation, *PanicError
// for a grain panic. fn must tolerate having processed only a prefix
// of the grains when an error is returned.
func parallelGrains(ctx context.Context, t *team, n, grain, workers int, fn func(worker, start, end int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if grain < 1 {
		grain = 1
	}
	_, w := fanOut(n, grain, workers)
	return t.run(ctx, n, grain, w, fn)
}
