package bfs

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// team is the worker team behind parallelGrains: helper goroutines that
// live in a Workspace for the length of one traversal and run the grains
// of every level that fans out. The caller of a level works grains too,
// so helpers add throughput but are never waited for: a helper that
// wakes after the caller has run out of grains finds the level closed
// and skips it.
//
// Lifetime. The zero team has no helpers. run starts them lazily, at
// the traversal's first level that fans out, and stop joins them; the
// engines call stop (through Workspace.quiesce) before they return, so
// a pooled workspace never holds a live goroutine. Between levels a
// helper yields for a short while and then parks on wake.
//
// Join contract. state packs a level's generation (high 32 bits), a
// closed flag, and the number of helpers that joined the level and have
// not yet left it. A helper joins only by incrementing the count of the
// generation it saw while the level is open; the caller closes the level
// once its own grain loop ends and then waits only for helpers that
// joined. The last of those to leave a closed level hands the caller a
// token on left. The level's inputs (fn, n, grain, width, ctx) are
// written before the generation is published and read only by joined
// helpers, so they never change under a reader.
//
// The sharded engine's barrier (shardedRun.round) is not reused here: it
// completes only when every rank arrives, which would make every level
// wait for the slowest helper to wake. See DESIGN.md §4c.
type team struct {
	state   atomic.Uint64
	quit    atomic.Bool
	parked  atomic.Int32
	mu      sync.Mutex
	wake    sync.Cond
	left    chan struct{}
	wg      sync.WaitGroup
	helpers int // started helpers; owned by the caller

	// The current level, valid for helpers that joined it.
	ctx     context.Context
	done    <-chan struct{}
	fn      func(worker, start, end int)
	n       int
	grain   int
	width   int
	cursor  atomic.Int64
	stopped atomic.Bool
	errMu   sync.Mutex
	err     error
}

const (
	teamGenShift = 32
	teamClosed   = 1 << 31
	teamJoined   = teamClosed - 1 // mask of the joined-helper count
)

// teamSpins bounds the scheduler yields a waiting goroutine spends
// before it blocks: a helper waiting for the next level, or the caller
// waiting for joined helpers to finish their last grain.
const teamSpins = 64

// run executes one level of n items in grain-sized blocks on width
// workers: the caller as worker 0 and helpers 1..width-1. It
// returns once every joined helper has left, with the first stop cause:
// ctx.Err() on cancellation, a *PanicError if a grain panicked.
func (t *team) run(ctx context.Context, n, grain, width int, fn func(worker, start, end int)) error {
	if t.left == nil {
		t.wake.L = &t.mu
		t.left = make(chan struct{}, 1)
	}
	gen := t.state.Load() >> teamGenShift
	for t.helpers < width-1 { //lint:ctx-ok bounded by the level's width; helpers observe ctx between grain claims
		t.helpers++
		t.wg.Add(1)
		go t.helper(t.helpers, gen)
	}
	t.ctx, t.done, t.fn = ctx, ctx.Done(), fn
	t.n, t.grain, t.width = n, grain, width
	t.cursor.Store(0)
	t.stopped.Store(false)
	t.err = nil
	t.publish(gen+1, 0)

	t.work(0)
	if t.close()&teamJoined != 0 {
		t.awaitLeft()
	}
	t.ctx, t.done = nil, nil
	return t.err
}

// stop joins every helper. The team stays usable: the next run starts
// helpers again.
func (t *team) stop() {
	if t.helpers == 0 {
		return
	}
	t.quit.Store(true)
	t.publish(t.state.Load()>>teamGenShift+1, teamClosed)
	t.wg.Wait()
	t.quit.Store(false)
	t.helpers = 0
}

// publish opens generation gen (with flags) and wakes parked helpers.
// A helper counts itself parked before its last look at state, so one
// that missed this store is woken by the broadcast.
func (t *team) publish(gen, flags uint64) {
	t.state.Store(gen<<teamGenShift | flags)
	if t.parked.Load() > 0 {
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
	}
}

// close marks the current level closed and returns the state before it.
func (t *team) close() uint64 {
	for {
		s := t.state.Load()
		if t.state.CompareAndSwap(s, s|teamClosed) {
			return s
		}
	}
}

// awaitLeft waits for the token the last joined helper sends when it
// leaves the closed level.
func (t *team) awaitLeft() {
	for i := 0; i < teamSpins && t.state.Load()&teamJoined != 0; i++ {
		runtime.Gosched()
	}
	<-t.left
}

// helper is worker id's loop: wait for a new generation, join it if it
// is still open, work its grains, leave.
func (t *team) helper(id int, seen uint64) {
	defer t.wg.Done()
	for {
		s := t.next(seen)
		if t.quit.Load() {
			return
		}
		seen = s >> teamGenShift
		if !t.join(s) {
			continue
		}
		if id < t.width {
			t.work(id)
		}
		if s := t.state.Add(^uint64(0)); s&teamClosed != 0 && s&teamJoined == 0 {
			t.left <- struct{}{}
		}
	}
}

// next returns the first state whose generation differs from seen,
// yielding for a while before it parks.
func (t *team) next(seen uint64) uint64 {
	for i := 0; i < teamSpins; i++ {
		if s := t.state.Load(); s>>teamGenShift != seen {
			return s
		}
		runtime.Gosched()
	}
	t.mu.Lock()
	t.parked.Add(1)
	s := t.state.Load()
	for s>>teamGenShift == seen {
		t.wake.Wait()
		s = t.state.Load()
	}
	t.parked.Add(-1)
	t.mu.Unlock()
	return s
}

// join counts the helper into the level s names, unless that level has
// closed or been superseded.
func (t *team) join(s uint64) bool {
	gen := s >> teamGenShift
	for s>>teamGenShift == gen && s&teamClosed == 0 {
		if t.state.CompareAndSwap(s, s+1) {
			return true
		}
		s = t.state.Load()
	}
	return false
}

// work claims grains until the level runs out of them or stops. The
// context is observed between claims, so a cancel is honored within one
// grain; a panicking grain becomes the level's *PanicError and stops the
// other workers at their next claim.
func (t *team) work(worker int) {
	defer func() {
		if v := recover(); v != nil {
			var perr error
			recoverToError(v, &perr)
			t.fail(perr)
		}
	}()
	for !t.stopped.Load() {
		select {
		case <-t.done:
			t.fail(t.ctx.Err())
			return
		default:
		}
		start := int(t.cursor.Add(int64(t.grain))) - t.grain
		if start >= t.n {
			return
		}
		t.fn(worker, start, min(start+t.grain, t.n))
	}
}

// fail records the level's first stop cause and stops further claims.
func (t *team) fail(err error) {
	t.errMu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.errMu.Unlock()
	t.stopped.Store(true)
}
