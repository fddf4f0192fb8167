package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostStamp identifies the machine and the code a result came from.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LLC        string `json:"llc"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// fingerprint is the part of the stamp that must match for two
// results to be comparable: same CPU, core budget, cache and Go.
func (h hostStamp) fingerprint() string {
	return fmt.Sprintf("%s|nproc=%d|gomaxprocs=%d|llc=%s|%s", h.CPU, h.NProc, h.GOMAXPROCS, h.LLC, h.GoVersion)
}

func stampHost(root string) hostStamp {
	return hostStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LLC:        lastLevelCache(),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// lastLevelCache reports cpu0's highest cache level and its size as
// sysfs gives them, e.g. "L3 307200K".
func lastLevelCache() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, size := "", ""
	for _, d := range dirs {
		l, err1 := os.ReadFile(filepath.Join(d, "level"))
		s, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if lv := strings.TrimSpace(string(l)); lv >= best {
			best, size = lv, strings.TrimSpace(string(s))
		}
	}
	if best == "" {
		return "unknown"
	}
	return "L" + best + " " + size
}

// commitOf names the code under test: the git HEAD when root is a
// repository, else a digest of its Go sources and module files.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(p); ext == ".go" || ext == ".mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks reads the machine-wide CPU time counters from /proc/stat:
// the ticks a hypervisor stole from this machine and the total.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of CPU time stolen between two cpuTicks reads.
func stealPct(steal0, total0, steal1, total1 float64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * (steal1 - steal0) / (total1 - total0)
}

// report is the full record of one run, kept under the output
// directory so a later run can compare against it.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     hostStamp          `json:"host"`
	Result   result             `json:"result"`
	Counts   map[string]int     `json:"counts"`
	StealPct float64            `json:"steal_pct"` // CPU time the hypervisor took during the run
	Notes    []string           `json:"notes,omitempty"`
	Measured map[string]float64 `json:"measured"` // every metric the workload produced
}

// compareBaseline prints how this run's metrics moved against a saved
// report, or why the two cannot be compared.
func compareBaseline(w io.Writer, path string, cur report) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Host.fingerprint() != cur.Host.fingerprint() {
		fmt.Fprintf(w, "baseline: INCOMPARABLE, different host\n  baseline %s\n  this run %s\n",
			base.Host.fingerprint(), cur.Host.fingerprint())
		return nil
	}
	if base.Workload != cur.Workload || base.Trace != cur.Trace {
		fmt.Fprintf(w, "baseline: INCOMPARABLE, baseline is %s trace=%v\n", base.Workload, base.Trace)
		return nil
	}
	fmt.Fprintf(w, "baseline: %s (commit %s)\n", path, base.Host.Commit)
	for _, name := range sortedKeys(cur.Result.Metrics) {
		m, ok := base.Result.Metrics[name]
		if !ok || m.Value == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-36s %12.4f -> %12.4f  %+6.1f%%\n", name, m.Value, cur.Result.Metrics[name].Value,
			100*(cur.Result.Metrics[name].Value/m.Value-1))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
