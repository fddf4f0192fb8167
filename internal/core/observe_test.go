package core

import (
	"bytes"
	"testing"

	"crossbfs/internal/fault"
	"crossbfs/internal/obs"
)

// TestEveryPlanFamilyObservable prices every golden case — each plan
// family, eager and lazy, clean and under every fault kind — through a
// recording obs.Recorder. Each call must open and close exactly one
// plan timeline with one sim step per priced level, and the stream must
// render to a valid Chrome trace. Rejected configurations emit nothing.
func TestEveryPlanFamilyObservable(t *testing.T) {
	tr := testTrace(t, 12, 16, 5)
	for _, c := range goldenCases() {
		var sched *fault.Schedule
		if c.faults != "" {
			sched = mustSchedule(t, c.faults, c.seed)
		}
		cap := &captureRecorder{}
		timing, err := priceGolden(tr, c, sched, cap)
		if timing == nil {
			if err == nil {
				t.Fatalf("%s: nil timing without an error", c.name)
			}
			if len(cap.events) != 0 {
				t.Errorf("%s: rejected configuration emitted %d events", c.name, len(cap.events))
			}
			continue
		}
		kinds := map[obs.Kind]int{}
		ids := map[uint64]bool{}
		for _, e := range cap.events {
			kinds[e.Kind]++
			ids[e.TraversalID] = true
		}
		if kinds[obs.KindPlanStart] != 1 || kinds[obs.KindPlanEnd] != 1 {
			t.Errorf("%s: %d plan_start / %d plan_end events, want one pair",
				c.name, kinds[obs.KindPlanStart], kinds[obs.KindPlanEnd])
		}
		if len(ids) != 1 {
			t.Errorf("%s: events span %d traversal IDs, want 1", c.name, len(ids))
		}
		if kinds[obs.KindSimStep] != len(timing.Steps) {
			t.Errorf("%s: %d sim steps for %d priced levels", c.name, kinds[obs.KindSimStep], len(timing.Steps))
		}
		if got := kinds[obs.KindRetry] + kinds[obs.KindReplan] + kinds[obs.KindFault]; got != len(timing.Faults) {
			t.Errorf("%s: %d fault events for %d fault records", c.name, got, len(timing.Faults))
		}
		var buf bytes.Buffer
		tw := obs.NewTraceWriter(&buf)
		for _, e := range cap.events {
			tw.Event(e)
		}
		if err := tw.Close(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := obs.ValidateTrace(buf.Bytes()); err != nil {
			t.Errorf("%s: invalid trace: %v", c.name, err)
		}
	}
}
