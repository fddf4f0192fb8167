package main

import (
	"testing"
	"time"
)

// A stall in one request must show up in the latency of every request
// scheduled while it lasted, not vanish because the pacer waited.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		step  = 2 * time.Millisecond
		stall = 60 * time.Millisecond
		n     = 40
		stuck = 5
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * step
	}
	s := openLoop(due, 1, func(i int) {
		if i == stuck {
			time.Sleep(stall)
		}
	})
	stallEnd := due[stuck] + stall
	for i := stuck + 1; i < n && due[i] < stallEnd; i++ {
		if want := stallEnd - due[i]; s[i].latency() < want {
			t.Errorf("request %d due %v: latency %v, want at least %v", i, due[i], s[i].latency(), want)
		}
		// The pacer itself kept to the schedule: the wait is queueing,
		// charged to latency, not generator lag.
		if s[i].lag() > stall/2 {
			t.Errorf("request %d: pacer lag %v during the stall", i, s[i].lag())
		}
	}
	if s[stuck].latency() < stall {
		t.Errorf("stalled request latency %v, want at least %v", s[stuck].latency(), stall)
	}
	for i := 0; i < stuck; i++ {
		if s[i].latency() > stall/2 {
			t.Errorf("request %d before the stall has latency %v", i, s[i].latency())
		}
	}
}

func TestEvenSchedule(t *testing.T) {
	due := evenSchedule(4, 400)
	for i, d := range due {
		if want := time.Duration(i) * 2500 * time.Microsecond; d != want {
			t.Fatalf("due[%d] = %v, want %v", i, d, want)
		}
	}
}
