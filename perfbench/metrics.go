package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef declares one reported metric. Per-layer metrics also name the
// end-to-end metric they should move and the workloads on which they should
// move it (README.md explains each prediction); BENCHMARK.json lists the
// same names, units and directions, which the tests check.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
	On     []string
}

var endToEndDefs = []metricDef{
	{Name: "node_s_per_s", Unit: "node-s/s", Better: "higher"},
	{Name: "delivered_per_s", Unit: "1/s", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "pdr", Unit: "ratio", Better: "higher"},
	{Name: "delay_mean_s", Unit: "s", Better: "lower"},
	{Name: "delay_p99_s", Unit: "s", Better: "lower"},
}

var (
	cityQMA    = []string{"city"}
	cities     = []string{"city", "city_csma"}
	cityCSMA   = []string{"city_csma"}
	sweepCSMA  = []string{"dsme_sweep", "city_csma"}
	sweepOnly  = []string{"dsme_sweep"}
	everywhere = []string{"city", "city_csma", "dsme_sweep"}
)

var perLayer = []metricDef{
	{"core.self_s", "s", "lower", "node_s_per_s", cityQMA},
	{"core.decisions", "count", "lower", "node_s_per_s", cityQMA},
	{"core.decisions_per_delivered", "ratio", "lower", "node_s_per_s", cityQMA},
	{"core.explore_ratio", "ratio", "lower", "node_s_per_s", cityQMA},
	{"core.send_ratio", "ratio", "lower", "node_s_per_s", cityQMA},
	{"qlearn.self_s", "s", "lower", "node_s_per_s", cityQMA},
	{"qlearn.table_bytes", "bytes", "lower", "node_s_per_s", cityQMA},

	{"mac.self_s", "s", "lower", "node_s_per_s", cities},
	{"mac.tx_attempts", "count", "lower", "node_s_per_s", cities},
	{"mac.tx_ok_ratio", "ratio", "higher", "node_s_per_s", cities},
	{"mac.retry_drops", "count", "lower", "node_s_per_s", cities},
	{"mac.queue_drops", "count", "lower", "node_s_per_s", cities},

	{"radio.self_s", "s", "lower", "node_s_per_s", cityCSMA},
	{"radio.tx", "count", "lower", "node_s_per_s", cityCSMA},
	{"radio.rx_delivered", "count", "higher", "node_s_per_s", cityCSMA},
	{"radio.rx_collided", "count", "lower", "node_s_per_s", cityCSMA},
	{"radio.rx_ok_ratio", "ratio", "higher", "node_s_per_s", cityCSMA},
	{"radio.cca", "count", "lower", "node_s_per_s", cityCSMA},
	{"radio.cca_busy_ratio", "ratio", "lower", "node_s_per_s", cityCSMA},

	{"sim.self_s", "s", "lower", "node_s_per_s", sweepCSMA},
	{"sim.events", "count", "lower", "node_s_per_s", sweepCSMA},
	{"sim.ns_per_event", "ns", "lower", "node_s_per_s", sweepCSMA},
	{"sim.events_per_delivered", "ratio", "lower", "node_s_per_s", sweepCSMA},

	{"gc.self_s", "s", "lower", "node_s_per_s", sweepOnly},
	{"go.alloc_mb", "MB", "lower", "peak_rss_mb", sweepOnly},
	{"go.mallocs", "count", "lower", "node_s_per_s", sweepOnly},
	{"go.gc_cycles", "count", "lower", "node_s_per_s", sweepOnly},
	{"go.gc_pause_s", "s", "lower", "node_s_per_s", sweepOnly},

	{"dsme.self_s", "s", "lower", "node_s_per_s", sweepOnly},
	{"dsme.requests_sent", "count", "lower", "node_s_per_s", sweepOnly},
	{"dsme.request_ok_ratio", "ratio", "higher", "node_s_per_s", sweepOnly},
	{"dsme.allocs_per_s", "1/s", "higher", "node_s_per_s", sweepOnly},
	{"dsme.duplicates", "count", "lower", "node_s_per_s", sweepOnly},
	{"csma.self_s", "s", "lower", "node_s_per_s", sweepCSMA},

	{"scenario.self_s", "s", "lower", "node_s_per_s", cities},
	{"scenario.edge_tx", "count", "lower", "node_s_per_s", cities},
	{"scenario.foreign_busy", "count", "lower", "node_s_per_s", cities},
	{"scenario.cross_cell_frac", "ratio", "lower", "node_s_per_s", cities},
	{"scenario.cell_events_max_over_mean", "ratio", "lower", "node_s_per_s", cities},
	{"scenario.worker_idle_frac", "ratio", "lower", "node_s_per_s", cities},

	{"topo.build_s", "s", "lower", "setup_s", cities},

	{"stats.self_s", "s", "lower", "node_s_per_s", sweepOnly},
	{"stats.jobs", "count", "higher", "node_s_per_s", sweepOnly},
	{"stats.job_p50_s", "s", "lower", "node_s_per_s", sweepOnly},
	{"stats.job_max_s", "s", "lower", "node_s_per_s", sweepOnly},
	{"stats.worker_idle_frac", "ratio", "lower", "node_s_per_s", sweepOnly},
	{"stats.makespan_over_ideal", "ratio", "lower", "node_s_per_s", sweepOnly},

	{"traffic.self_s", "s", "lower", "node_s_per_s", everywhere},
	{"frame.self_s", "s", "lower", "node_s_per_s", everywhere},
	{"superframe.self_s", "s", "lower", "node_s_per_s", everywhere},
	{"other.self_s", "s", "lower", "node_s_per_s", everywhere},
	{"trace.coverage_frac", "ratio", "higher", "node_s_per_s", everywhere},
	{"trace.overhead_frac", "ratio", "lower", "node_s_per_s", everywhere},
}

// hostInfo fingerprints the machine and the code a set was measured on.
// Results form a trajectory per host, never an absolute threshold.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func fingerprint() (hostInfo, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return hostInfo{}, err
	}
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit("."),
		Source:     src,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads the checked-out commit from the .git directory, without
// running git; "unknown" outside a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod of the checkout, the
// benchmark's own included, so a set is tied to the code it measured even in
// a checkout that is not a git repository.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
