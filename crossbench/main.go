// Command crossbench is the crossbfs benchmark. One invocation runs one
// workload for a fixed number of seconds, checks every answer the
// program gives, and prints its metrics; the last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics. With -trace 0 the metrics are the end-to-end ones listed in
// BENCHMARK.json; with -trace 1 they are the per-layer ones, taken from
// spans the benchmark records around each layer's public entry points.
//
// Build and run it through run.sh from the repository root, which
// builds bfsd and this driver from the same checkout:
//
//	bash crossbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
//	bash crossbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer
// lists.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends on.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: every metric it measured, the
// sample count behind each, and its correctness tally.
type outcome struct {
	metrics   map[string]float64
	counts    map[string]int
	attempted int64
	failed    int64
	notes     []string
	spans     *spanLog
	stealPct  float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, counts: map[string]int{}}
}

func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = v
	if n > 0 {
		o.counts[name] = n
	}
}

// fail records a failed operation and keeps its first few reasons.
func (o *outcome) fail(err error) {
	o.failed++
	if o.failed <= 5 {
		o.notes = append(o.notes, "FAILED: "+err.Error())
	}
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bfsd     string
	out      string
	baseline string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"serve-mixed":  runServe,
	"graph500-s18": func(cfg config) (*outcome, error) { return runInProc(cfg, graph500S18) },
	"lattice-1k":   func(cfg config) (*outcome, error) { return runInProc(cfg, lattice1K) },
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crossbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the queries and roots")
	fs.IntVar(&cfg.seconds, "seconds", 15, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	fs.StringVar(&cfg.bfsd, "bfsd", ".bench_build/bfsd", "bfsd binary")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for reports, spans and daemon logs")
	fs.StringVar(&cfg.baseline, "baseline", "", "saved report to compare this run against")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	cfg.trace = trace == 1
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	host := stampHost(".")
	var last result
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		c := cfg
		c.workload = name
		steal0, total0 := cpuTicks()
		o, err := run(c)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		steal1, total1 := cpuTicks()
		o.stealPct = stealPct(steal0, total0, steal1, total1)
		rep, err := finish(c, spec, host, o, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if len(names) == 1 {
			last = rep.Result
			continue
		}
		if last.Metrics == nil {
			last = result{Correct: true, Metrics: map[string]metric{}}
		}
		last.Correct = last.Correct && rep.Result.Correct
		last.Attempted += rep.Result.Attempted
		last.Failed += rep.Result.Failed
		for k, m := range rep.Result.Metrics {
			last.Metrics[name+"/"+k] = m
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func loadSpec(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkFile
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// finish turns an outcome into the declared metric set, prints the
// human-readable table, saves the full report and, when asked,
// compares it with a baseline.
func finish(cfg config, spec *benchmarkFile, host hostStamp, o *outcome, w io.Writer) (report, error) {
	declared := spec.EndToEnd
	if cfg.trace {
		declared = spec.PerLayer
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(w, "crossbench %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "host: %s | commit %s | steal %.1f%% of CPU time during the run\n",
		host.fingerprint(), host.Commit, o.stealPct)
	for _, m := range declared {
		v, ok := o.metrics[m.Name]
		// An end-to-end metric can only go missing when every operation
		// it times failed, and then the result already reads incorrect.
		if !ok && !cfg.trace && o.failed == 0 {
			return report{}, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		n := ""
		switch {
		case !ok && cfg.trace:
			n = "not exercised by this workload"
		case !ok:
			n = "no operation succeeded"
		case o.counts[m.Name] > 0:
			n = fmt.Sprintf("n=%d", o.counts[m.Name])
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s %s\n", m.Name, v, m.Unit, n)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, failed_ratio %.6f\n", o.attempted, o.failed,
		float64(o.failed)/float64(max(o.attempted, 1)))
	for _, n := range o.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	if o.attempted < 1 {
		return report{}, errors.New("no operation was attempted")
	}
	rep := report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: host, Result: res, Counts: o.counts, StealPct: o.stealPct, Notes: o.notes, Measured: o.metrics,
	}
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	stem := fmt.Sprintf("%s-trace%d-seed%d", cfg.workload, traceFlag(cfg.trace), cfg.seed)
	b, _ := json.MarshalIndent(rep, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, stem+".json"), b, 0o644); err != nil {
		return report{}, err
	}
	if o.spans != nil {
		if err := o.spans.write(filepath.Join(dir, stem+".spans.json")); err != nil {
			return report{}, err
		}
	}
	if cfg.baseline != "" {
		if err := compareBaseline(w, cfg.baseline, rep); err != nil {
			return report{}, err
		}
	}
	return rep, nil
}

func traceFlag(on bool) int {
	if on {
		return 1
	}
	return 0
}
