package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryRecorderAggregates(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "hybrid(64,64)").WithRanks(2)

	rr.Event(Event{Kind: KindTraversalStart, Engine: "hybrid(64,64)"})
	rr.Event(Event{Kind: KindLevel, Dir: TopDown, FrontierVertices: 10, Discovered: 9, WallDur: 500 * time.Microsecond})
	rr.Event(Event{Kind: KindLevel, Dir: BottomUp, FrontierVertices: 100, Discovered: 80, WallDur: 2 * time.Millisecond})
	rr.Event(Event{Kind: KindExchangeEnd, Index: 1, Bytes: 4096})
	rr.Event(Event{Kind: KindExchangeEnd, Index: 7, Bytes: 1 << 20}) // rank out of range: dropped
	rr.Event(Event{Kind: KindFault, Detail: "counted in events_total"})

	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	page := sb.String()
	for _, want := range []string{
		`crossbfs_engine_traversals_total{engine="hybrid(64,64)"} 1`,
		`crossbfs_engine_levels_total{engine="hybrid(64,64)",dir="td"} 1`,
		`crossbfs_engine_levels_total{engine="hybrid(64,64)",dir="bu"} 1`,
		`crossbfs_engine_discovered_total{engine="hybrid(64,64)",dir="bu"} 80`,
		`crossbfs_engine_exchange_bytes_total{engine="hybrid(64,64)",rank="1"} 4096`,
		`crossbfs_engine_exchange_bytes_total{engine="hybrid(64,64)",rank="0"} 0`,
		`crossbfs_engine_events_total{engine="hybrid(64,64)",kind="fault"} 1`,
		`crossbfs_engine_events_total{engine="hybrid(64,64)",kind="exchange_end"} 2`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition misses %q:\n%s", want, page)
		}
	}
	if _, err := ValidateExposition(strings.NewReader(page)); err != nil {
		t.Errorf("labeled exposition fails validation: %v", err)
	}
}

// TestRegistryRecorderSharesCells pins the interning contract: two
// recorders for the same engine share cells, so a multi-graph server
// with a repeated engine aggregates rather than clobbering.
func TestRegistryRecorderSharesCells(t *testing.T) {
	reg := NewRegistry()
	a := NewRegistryRecorder(reg, "serial")
	b := NewRegistryRecorder(reg, "serial")
	a.Event(Event{Kind: KindTraversalStart})
	b.Event(Event{Kind: KindTraversalStart})
	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	if !strings.Contains(sb.String(), `crossbfs_engine_traversals_total{engine="serial"} 2`) {
		t.Errorf("recorders did not share the cell:\n%s", sb.String())
	}
}

// allKinds returns one event of every declared Kind, walking the
// constant block up to the "unknown" String sentinel — the same
// freshness walk as the lint's TestRegisteredKindsFresh, so a new Kind
// joins the stream without editing this test.
func allKinds(t testing.TB) []Event {
	var evs []Event
	for k := Kind(0); k.String() != "unknown"; k++ {
		if k == 255 {
			t.Fatal("Kind.String never returns \"unknown\"")
		}
		evs = append(evs, Event{Kind: k, Dir: BottomUp, FrontierVertices: 64, Discovered: 8, Scans: 3,
			Index: 1, Bytes: 512, WallDur: time.Millisecond, Reused: true})
	}
	return evs
}

// TestRegistryRecorderCoversEveryKind feeds one event of every Kind
// through the recorder and asserts each lands in a named series: the
// two kinds with dedicated families there, every other kind in its
// own crossbfs_engine_events_total{kind} cell. A Kind added without a
// series fails here.
func TestRegistryRecorderCoversEveryKind(t *testing.T) {
	for _, e := range allKinds(t) {
		reg := NewRegistry()
		NewRegistryRecorder(reg, "e").WithRanks(2).Event(e)
		var series string
		var got float64
		switch e.Kind {
		case KindTraversalStart:
			series = "crossbfs_engine_traversals_total"
			got = SeriesSum(t, reg, series, nil)
		case KindLevel:
			series = "crossbfs_engine_levels_total"
			got = SeriesSum(t, reg, series, nil)
		default:
			series = "crossbfs_engine_events_total"
			got = SeriesSum(t, reg, series, nil)
			if own := SeriesSum(t, reg, series, map[string]string{"kind": e.Kind.String()}); own != 1 {
				t.Errorf("kind %s: events_total{kind=%q} = %v, want 1", e.Kind, e.Kind, own)
			}
		}
		if got != 1 {
			t.Errorf("kind %s: %s = %v, want exactly 1 (the event lands in no series, or in two)", e.Kind, series, got)
		}
	}
}

// TestRegistryRecorderAllocs is the hot-path contract: with every
// label tuple pre-interned, Event performs only atomic operations —
// 0 allocs/op across a stream holding every event kind.
func TestRegistryRecorderAllocs(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "hybrid(64,64)").WithRanks(4)
	evs := allKinds(t)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, e := range evs {
			rr.Event(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("RegistryRecorder.Event allocates %v per run, want 0", allocs)
	}
}
