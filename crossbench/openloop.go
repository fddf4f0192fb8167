package main

import (
	"sync"
	"time"
)

// sample is one open-loop request's timeline, as offsets from the
// schedule's start.
type sample struct {
	Due  time.Duration // when the schedule said to send it
	Sent time.Duration // when the pacer released it to a connection
	Done time.Duration // when its response was fully read
}

// latency is charged from the scheduled send time, so a stall delays
// every request due during it (no coordinated omission).
func (s sample) latency() time.Duration { return s.Done - s.Due }

// lag is how late the pacer itself released the request.
func (s sample) lag() time.Duration { return s.Sent - s.Due }

// openLoop runs do(i) for every request i at its scheduled offset
// due[i], over at most workers concurrent callers. The pacer never
// waits for responses: a request due while every caller is busy queues
// until one frees up, and that wait is part of its latency.
func openLoop(due []time.Duration, workers int, do func(i int)) []sample {
	out := make([]sample, len(due))
	ready := make(chan int, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				do(i)
				out[i].Done = time.Since(start)
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		out[i].Due = d
		out[i].Sent = time.Since(start)
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out
}

// evenSchedule spaces n requests at a fixed rate.
func evenSchedule(n int, qps float64) []time.Duration {
	due := make([]time.Duration, n)
	step := float64(time.Second) / qps
	for i := range due {
		due[i] = time.Duration(float64(i) * step)
	}
	return due
}
