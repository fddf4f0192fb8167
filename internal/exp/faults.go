package exp

import (
	"context"
	"errors"
	"fmt"
	"io"

	"crossbfs/internal/archsim"
	"crossbfs/internal/core"
	"crossbfs/internal/fault"
)

// FaultToleranceRow records how the tuned cross-architecture plan
// degrades under one fault scenario: the priced total, the overhead
// relative to the clean run, and the recovery work (retries at the
// link layer, replans at the planner layer) that bought completion.
type FaultToleranceRow struct {
	Scenario string
	Total    float64 // seconds; 0 when Failed
	Overhead float64 // Total / clean Total; 0 when Failed
	Retries  int
	Replans  int
	Events   int  // fault-log entries
	Failed   bool // no surviving device could finish the traversal
}

// defaultFaultScenarios is the degradation ladder the experiment walks
// when no -faults spec is given: each rung exercises one level of the
// recovery machinery (retry, absorb slowdown, replan, fail typed).
func defaultFaultScenarios() []string {
	return []string{
		"transient:0.05",
		"transient:0.25",
		"slow:KeplerK20xx4",
		"crash:KeplerK20x@3",
		"crash:SandyBridge-8c@1;crash:KeplerK20x@1",
	}
}

// FaultTolerance prices the tuned CPUTD+GPUCB plan under a ladder of
// fault scenarios (or a single user-supplied spec). The trace is
// computed once — fault injection only changes how the simulator
// prices it — so every row answers "same traversal, degraded
// machine". ctx is checked between scenarios so a deadline set on the
// experiment driver cuts the sweep at a row boundary.
func FaultTolerance(ctx context.Context, cfg Config, spec string, seed uint64) ([]FaultToleranceRow, error) {
	cfg.setDefaults()
	_, tr, _, err := cfg.workload()
	if err != nil {
		return nil, err
	}
	cross, err := tunedCross(tr, archsim.SandyBridge(), archsim.KeplerK20x(), cfg.Link)
	if err != nil {
		return nil, err
	}

	clean := core.Simulate(tr, cross, cfg.Link)
	rows := []FaultToleranceRow{{Scenario: "clean", Total: clean.Total, Overhead: 1}}

	specs := defaultFaultScenarios()
	if spec != "" {
		specs = []string{spec}
	}
	for _, s := range specs {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		sched, err := fault.Parse(s, seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s, err)
		}
		t, err := core.Price(tr, cross, core.PriceOptions{Link: cfg.Link, Schedule: sched})
		if err != nil {
			var fe *fault.Error
			if !errors.As(err, &fe) {
				return nil, fmt.Errorf("scenario %q: %w", s, err)
			}
			row := FaultToleranceRow{Scenario: s, Failed: true}
			if t != nil {
				row.Retries, row.Replans, row.Events = t.Retries, t.Replans, len(t.Faults)
			}
			rows = append(rows, row)
			continue
		}
		rows = append(rows, FaultToleranceRow{
			Scenario: s,
			Total:    t.Total,
			Overhead: t.Total / clean.Total,
			Retries:  t.Retries,
			Replans:  t.Replans,
			Events:   len(t.Faults),
		})
	}
	return rows, nil
}

// RenderFaultTolerance prints the degradation ladder as a table.
func RenderFaultTolerance(w io.Writer, rows []FaultToleranceRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "scenario\ttotal\toverhead\tretries\treplans\tevents")
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(tw, "%s\tFAILED\t-\t%d\t%d\t%d\n", r.Scenario, r.Retries, r.Replans, r.Events)
			continue
		}
		fmt.Fprintf(tw, "%s\t%.6fs\t%.2fx\t%d\t%d\t%d\n", r.Scenario, r.Total, r.Overhead, r.Retries, r.Replans, r.Events)
	}
	return tw.Flush()
}

// FaultToleranceCSV writes the rows in machine-readable form.
func FaultToleranceCSV(w io.Writer, rows []FaultToleranceRow) error {
	if _, err := fmt.Fprintln(w, "scenario,total_s,overhead,retries,replans,events,failed"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%q,%.9f,%.4f,%d,%d,%d,%t\n",
			r.Scenario, r.Total, r.Overhead, r.Retries, r.Replans, r.Events, r.Failed); err != nil {
			return err
		}
	}
	return nil
}
