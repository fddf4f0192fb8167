// Package sharedwrite is the golden test for the sharedwrite
// analyzer: BFS-kernel-shaped goroutine closures writing to captured
// containers, with and without a visible safety discipline.
package sharedwrite

import "sync"

// bitmap mimics the repo's claim bitmap.
type bitmap struct{ words []uint64 }

func (b *bitmap) SetAtomic(i int) bool { return true }
func (b *bitmap) Get(i int) bool       { return false }

// parallelGrains mimics the repo's fan-out primitive: fn runs
// concurrently on worker goroutines.
func parallelGrains(n, grain, workers int, fn func(worker, start, end int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			fn(worker, 0, n)
		}(w)
	}
	wg.Wait()
}

// badParentWrite is the bug the analyzer exists for: two workers can
// claim the same vertex and race on parent[v].
func badParentWrite(parent []int32, queue []int32, visited *bitmap) {
	parallelGrains(len(queue), 64, 4, func(worker, start, end int) {
		for _, u := range queue[start:end] {
			v := int(u)
			if !visited.Get(v) {
				parent[v] = u // want `write to captured "parent"`
			}
		}
	})
}

// badGoClosure seeds the same race through a bare go statement, plus a
// captured-map write.
func badGoClosure(level []int32, index map[int32]int32) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		level[0] = 1        // want `write to captured "level"`
		index[7] = level[0] // want `write to captured "index"`
	}()
	wg.Wait()
}

// goodClaimGuarded is the top-down kernel idiom: only the SetAtomic
// winner writes, so the write is exempt.
func goodClaimGuarded(parent, level []int32, queue []int32, visited *bitmap) {
	parallelGrains(len(queue), 64, 4, func(worker, start, end int) {
		for _, u := range queue[start:end] {
			v := int(u)
			if visited.SetAtomic(v) {
				parent[v] = u
				level[v] = 1
			}
		}
	})
}

// goodWorkerShard is the per-worker shard idiom: each goroutine owns
// exactly locals[worker].
func goodWorkerShard(queue []int32) {
	locals := make([][]int32, 4)
	parallelGrains(len(queue), 64, 4, func(worker, start, end int) {
		local := locals[worker]
		local = append(local, queue[start:end]...)
		locals[worker] = local
	})
}

// goodAnnotated is the bottom-up kernel idiom: disjoint ranges make
// the write safe, which only a human can assert.
func goodAnnotated(parent []int32, front *bitmap) {
	parallelGrains(len(parent), 64, 4, func(worker, start, end int) {
		for v := start; v < end; v++ {
			if front.Get(v) {
				parent[v] = int32(v) //lint:shared-ok v iterates this worker's disjoint [start,end) grain
			}
		}
	})
}

// goodLocalOnly writes a slice declared inside the closure — no
// capture, no diagnostic.
func goodLocalOnly(queue []int32) {
	parallelGrains(len(queue), 64, 4, func(worker, start, end int) {
		scratch := make([]int32, 0, end-start)
		for _, u := range queue[start:end] {
			scratch = append(scratch, u)
		}
		_ = scratch
	})
}

// runManyFunc mimics the repo's batched multi-root BFS driver: fn
// runs concurrently on worker goroutines, each index delivered to
// exactly one call. Anything named like a "runMany" driver is treated
// as a parallel runner.
func runManyFunc(roots []int32, fn func(i int, root int32) error) error {
	var wg sync.WaitGroup
	for i := range roots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = fn(i, roots[i])
		}(i)
	}
	wg.Wait()
	return nil
}

// badBatchWrite races on a fixed slot from concurrent batch callbacks.
func badBatchWrite(roots []int32, out []float64) {
	_ = runManyFunc(roots, func(i int, root int32) error {
		out[0] = float64(root) // want `write to captured "out"`
		return nil
	})
}

// goodBatchIndexedWrite is the RunManyFunc consumer idiom: the write
// is indexed by the callback's own index parameter, which the driver
// hands to exactly one call — the same exemption as a worker shard.
func goodBatchIndexedWrite(roots []int32, out []float64) {
	_ = runManyFunc(roots, func(i int, root int32) error {
		out[i] = float64(root)
		return nil
	})
}

// The cases below mirror the partitioned engine's frontier exchange:
// rank goroutines scatter remote claims into an outbox matrix and
// merge peers' deltas into disjoint owned ranges.

// badGhostScatter routes each remote claim into the DESTINATION
// rank's outbox row — every rank writes every row, the classic
// exchange race. The safe form gives each sender its own row.
func badGhostScatter(outboxes [][]int32, frontier []int32, owner func(int32) int) {
	var wg sync.WaitGroup
	for r := 0; r < len(outboxes); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for _, v := range frontier {
				dst := owner(v)
				outboxes[dst] = append(outboxes[dst], v) // want `write to captured "outboxes"`
			}
		}(r)
	}
	wg.Wait()
}

// goodOutboxPublish is the sender-owns-the-row idiom the engine uses:
// rank is the closure's own parameter, so outboxes[rank] is a
// per-worker shard even though the destination varies inside the row.
func goodOutboxPublish(outboxes [][]int32, frontier []int32, owner func(int32) int) {
	var wg sync.WaitGroup
	for r := 0; r < len(outboxes); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var out []int32
			for _, v := range frontier {
				if owner(v) != rank {
					out = append(out, v)
				}
			}
			outboxes[rank] = out
		}(r)
	}
	wg.Wait()
}

// goodGhostApply is the owner-side arbitration idiom: inbound claims
// race, but only the atomic-claim winner writes the shared rows.
func goodGhostApply(parent []int32, inbox []int32, visited *bitmap) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range inbox {
			if visited.SetAtomic(int(v)) {
				parent[v] = v
			}
		}
	}()
	wg.Wait()
}

// goodOwnedRange is the 1D-partition invariant only a human can
// assert: rank boundaries are word-aligned, so every write lands in
// the writer's own disjoint [lo[rank], hi[rank]) rows.
func goodOwnedRange(parent []int32, lo, hi []int, replica *bitmap) {
	var wg sync.WaitGroup
	for r := 0; r < len(lo); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for v := lo[rank]; v < hi[rank]; v++ {
				if replica.Get(v) {
					parent[v] = int32(v) //lint:shared-ok v iterates this rank's owned [lo,hi) range; 64-aligned partition boundaries keep even the bitmap words disjoint
				}
			}
		}(r)
	}
	wg.Wait()
}

// storedBody is a grain body built once and kept in a field; its
// captured container writes are policed like a literal argument's.
type storedBody struct {
	frontier []int32
	out      []int32
	body     func(worker, start, end int)
}

func (s *storedBody) build() {
	s.body = func(worker, start, end int) {
		for _, v := range s.frontier[start:end] {
			s.out[v] = v // want `write to captured "s" inside a goroutine closure`
		}
	}
}

func (s *storedBody) level() {
	parallelGrains(len(s.frontier), 64, 4, s.body)
}

// The cases below hand the grain's work to a same-package helper, the
// shape of the bottom-up kernel: the helper's writes through its
// parameters land in the closure's shared containers, so the analyzer
// follows the call and checks them there.

// scanRange writes the caller's parent and level maps through its
// parameters. parent has no discipline the analyzer can see; level
// carries the human-reviewed disjoint-range rationale.
func scanRange(parent, level []int32, front *bitmap, lo, hi int) {
	scratch := make([]int32, 1)
	for v := lo; v < hi; v++ {
		if front.Get(v) {
			parent[v] = int32(v) // want `write through "parent" in scanRange, which a goroutine closure calls`
			level[v] = 1         //lint:shared-ok v iterates the caller's disjoint [lo,hi) grain
			scratch[0] = int32(v)
		}
	}
}

func helperGrains(parent, level []int32, front *bitmap) {
	parallelGrains(len(parent), 64, 4, func(worker, start, end int) {
		scanRange(parent, level, front, start, end)
	})
}

// claimRange is the top-down idiom one call down: only the SetAtomic
// winner writes.
func claimRange(parent []int32, queue []int32, visited *bitmap) {
	for _, u := range queue {
		if visited.SetAtomic(int(u)) {
			parent[u] = u
		}
	}
}

// appendShard indexes locals by the worker parameter its caller
// passes, so the write is a per-worker shard.
func appendShard(locals [][]int32, worker int, vs []int32) {
	locals[worker] = append(locals[worker], vs...)
}

// appendShared indexes by a value that is not the caller's worker.
func appendShared(locals [][]int32, slot int, vs []int32) {
	locals[slot] = append(locals[slot], vs...) // want `write through "locals" in appendShared`
}

func helperDisciplines(parent []int32, queue []int32, visited *bitmap) {
	locals := make([][]int32, 4)
	parallelGrains(len(queue), 64, 4, func(worker, start, end int) {
		claimRange(parent, queue[start:end], visited)
		appendShard(locals, worker, queue[start:end])
		appendShared(locals, 0, queue[start:end])
	})
}
