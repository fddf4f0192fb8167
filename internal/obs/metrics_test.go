package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// SeriesSum renders reg and sums every sample named name whose labels
// include match (nil matches all). It is exported for the external
// obs_test package too: the rendered page, not the cells, is what
// scrapers see, so tests read values the same way.
func SeriesSum(t testing.TB, reg *Registry, name string, match map[string]string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	fams, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	sum := 0.0
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name != name {
				continue
			}
			ok := true
			for k, v := range match {
				ok = ok && s.Labels[k] == v
			}
			if ok {
				sum += s.Value
			}
		}
	}
	return sum
}

func feedMetrics(rec Recorder) {
	events := []Event{
		{Kind: KindTraversalStart, Reused: true},
		{Kind: KindRootDispatch},
		{Kind: KindLevel, Dir: TopDown, FrontierVertices: 1, Discovered: 10, Grains: 1, WallDur: 3 * time.Microsecond},
		{Kind: KindSwitch, Dir: BottomUp},
		{Kind: KindLevel, Dir: BottomUp, FrontierVertices: 10, Discovered: 100, Scans: 500, Grains: 4, WallDur: 9 * time.Microsecond},
		{Kind: KindTraversalEnd},
		{Kind: KindRootDone},
		{Kind: KindTraversalStart},
		{Kind: KindTraversalEnd, Detail: "context canceled"},
		{Kind: KindPlanStart},
		{Kind: KindSimStep},
		{Kind: KindSimStep},
		{Kind: KindHandoff, Bytes: 4096},
		{Kind: KindPlanEnd},
		{Kind: KindRetry},
		{Kind: KindReplan},
		{Kind: KindFault},
	}
	for _, e := range events {
		rec.Event(e)
	}
}

// TestMetricsSnapshot pins the registry successors of the retired flat
// counters on one mixed event stream (the table in OBSERVABILITY.md
// §Metrics maps each old name to these series).
func TestMetricsSnapshot(t *testing.T) {
	reg := NewRegistry()
	feedMetrics(NewRegistryRecorder(reg, "e"))
	ev := func(kind string) map[string]string { return map[string]string{"kind": kind} }
	cases := []struct {
		series string
		match  map[string]string
		want   float64
	}{
		{"crossbfs_engine_traversals_total", nil, 2},
		{"crossbfs_engine_traversal_errors_total", nil, 1},
		{"crossbfs_engine_workspace_reuses_total", nil, 1},
		{"crossbfs_engine_events_total", ev("root_dispatch"), 1},
		{"crossbfs_engine_events_total", ev("root_done"), 1},
		{"crossbfs_engine_levels_total", nil, 2},
		{"crossbfs_engine_levels_total", map[string]string{"dir": "td"}, 1},
		{"crossbfs_engine_levels_total", map[string]string{"dir": "bu"}, 1},
		{"crossbfs_engine_events_total", ev("switch"), 1},
		{"crossbfs_engine_discovered_total", nil, 110},
		{"crossbfs_engine_scans_total", nil, 500},
		{"crossbfs_engine_events_total", ev("plan_start"), 1},
		{"crossbfs_engine_events_total", ev("sim_step"), 2},
		{"crossbfs_engine_events_total", ev("handoff"), 1},
		{"crossbfs_engine_events_total", ev("retry"), 1},
		{"crossbfs_engine_events_total", ev("replan"), 1},
		{"crossbfs_engine_events_total", ev("fault"), 1},
		{"crossbfs_engine_events_total", ev("traversal_end"), 2},
		// |V|cq 1 lands in le=1; |V|cq 10 in le=16.
		{"crossbfs_engine_frontier_vertices_bucket", map[string]string{"dir": "td", "le": "1"}, 1},
		{"crossbfs_engine_frontier_vertices_bucket", map[string]string{"dir": "bu", "le": "8"}, 0},
		{"crossbfs_engine_frontier_vertices_bucket", map[string]string{"dir": "bu", "le": "16"}, 1},
		// 3us lands in le=4e-06; 9us in le=1.6e-05.
		{"crossbfs_engine_level_seconds_bucket", map[string]string{"dir": "td", "le": "4e-06"}, 1},
		{"crossbfs_engine_level_seconds_bucket", map[string]string{"dir": "bu", "le": "8e-06"}, 0},
		{"crossbfs_engine_level_seconds_bucket", map[string]string{"dir": "bu", "le": "1.6e-05"}, 1},
	}
	for _, c := range cases {
		if got := SeriesSum(t, reg, c.series, c.match); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.series, c.match, got, c.want)
		}
	}
	// No kind is counted twice: the dedicated families' kinds have no
	// events_total cell.
	for _, kind := range []string{"traversal_start", "level"} {
		if got := SeriesSum(t, reg, "crossbfs_engine_events_total", ev(kind)); got != 0 {
			t.Errorf("events_total{kind=%q} = %v, want no series", kind, got)
		}
	}
}

// TestMetricsTextEndpoint serves a recorder's registry through
// Registry.Handler: a valid, fully typed exposition page with the
// exposition content type.
func TestMetricsTextEndpoint(t *testing.T) {
	reg := NewRegistry()
	feedMetrics(NewRegistryRecorder(reg, "e"))

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ValidateExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("served page invalid: %v\n%s", err, body)
	}
	if st.Typed != st.Families {
		t.Errorf("%d of %d families untyped", st.Families-st.Typed, st.Families)
	}
	if !strings.Contains(string(body), `crossbfs_engine_levels_total{engine="e",dir="td"} 1`) {
		t.Errorf("served page misses the level counter:\n%s", body)
	}
}

func TestMetricsConcurrentEvents(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "e")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rr.Event(Event{Kind: KindLevel, Dir: TopDown, FrontierVertices: int64(i), Discovered: 1})
				rr.Event(Event{Kind: KindSwitch})
			}
		}()
	}
	wg.Wait()
	for _, series := range []string{"crossbfs_engine_levels_total", "crossbfs_engine_discovered_total", "crossbfs_engine_events_total"} {
		if got := SeriesSum(t, reg, series, nil); got != workers*per {
			t.Errorf("%s = %v, want %d", series, got, workers*per)
		}
	}
}

// TestMetricsScrapeWhileRecording is the race-mode gate for the pull
// endpoint: HTTP scrapes and exposition renders run concurrently with
// a storm of recording goroutines, and every page must validate.
func TestMetricsScrapeWhileRecording(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "e")
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var rec sync.WaitGroup
	for w := 0; w < 4; w++ {
		rec.Add(1)
		go func(w int) {
			defer rec.Done()
			i := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				rr.Event(Event{Kind: KindTraversalStart, TraversalID: uint64(i)})
				rr.Event(Event{Kind: KindLevel, Dir: TopDown, FrontierVertices: i, Discovered: 1,
					Grains: 1, WallDur: time.Duration(i) * time.Microsecond})
				rr.Event(Event{Kind: KindTraversalEnd, TraversalID: uint64(i)})
			}
		}(w)
	}
	var scr sync.WaitGroup
	for s := 0; s < 4; s++ {
		scr.Add(1)
		go func() {
			defer scr.Done()
			for i := 0; i < 25; i++ {
				resp, err := srv.Client().Get(srv.URL)
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("read scrape: %v", err)
					return
				}
				if !strings.Contains(string(body), "crossbfs_engine_traversals_total") {
					t.Errorf("scrape missing engine_traversals_total:\n%s", body)
					return
				}
				if _, err := ValidateExposition(strings.NewReader(string(body))); err != nil {
					t.Errorf("scrape during recording invalid: %v", err)
					return
				}
			}
		}()
	}
	scr.Wait()
	close(stop)
	rec.Wait()
	if SeriesSum(t, reg, "crossbfs_engine_traversals_total", nil) == 0 || SeriesSum(t, reg, "crossbfs_engine_levels_total", nil) == 0 {
		t.Error("no events recorded during scrape storm")
	}
}
