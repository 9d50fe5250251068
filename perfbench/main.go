// Command perfbench is the repository benchmark: it sets up one workload
// from a seed, runs fixed-work ops on it for a given number of seconds,
// checks their outputs and prints the end-to-end metrics (or, with
// --trace 1, the per-layer split) as one JSON object on the last line of
// standard output. See README.md; run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload city --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: city, city_csma or dsme_sweep")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "host seconds to spend running ops after set-up")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer split from a profiled run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, trace %d, seconds %g\n", *name, *trace, *seconds)
		return 2
	}
	host, err := fingerprint()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(map[string]any{"host": host, "workload": w.name, "seed": *seed})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))

	rep := measure(w, w.full, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if len(rep.absent) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s does not expose %v; reported as 0\n", w.name, rep.absent)
	}
	fmt.Fprintf(stderr, "perfbench: %s op walls %.3f s, cpu %.3f s\n", w.name, rep.walls, rep.cpus)
	if rep.first != nil {
		fmt.Fprintf(stderr, "perfbench: %s delay_p99_s over %d samples\n", w.name, rep.first.delaySamples)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if msg, err := checkRepeat(filepath.Join(".bench_build", "outputs"), host.Source, w.name, *seed, rep.first); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	} else if msg != "" {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
		rep.problems = append(rep.problems, msg)
		rep.failed = rep.attempted
	}
	if *trace == 1 {
		if err := rep.tracer.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one benchmark invocation.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	absent            []string
	problems          []string
	walls, cpus       []float64
	first             *opResult // the first op; every op repeats its simulated outputs
	tracer            *tracer
}

func (r *report) result() map[string]any {
	return map[string]any{
		"correct":   r.failed == 0 && len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

// Set-up is repeated at least minSetups times and for at least setupTime,
// at most maxSetups times; its median is setup_s.
const (
	minSetups = 5
	maxSetups = 200
	setupTime = 500 * time.Millisecond
)

// measure sets the workload up repeatedly, then runs ops until the budget
// is spent (at least one; with trace, untraced and profiled ops alternate,
// at least one of each) and derives the metrics.
func measure(w *workload, s shape, seed uint64, budget time.Duration, trace bool) *report {
	tr := newTracer()
	var setups, builds []float64
	var p *prepared
	t0 := time.Now()
	for len(setups) < maxSetups && (len(setups) < minSetups || time.Since(t0) < setupTime) {
		runtime.GC() // time each set-up from a clean heap
		start := time.Now()
		p = w.setup(seed, s, workers)
		setups = append(setups, tr.add("setup", 0, start, time.Now()).dur())
		builds = append(builds, p.topoBuildS)
	}

	rep := &report{tracer: tr}
	rss := startRSS()
	defer rss.close()
	var plain, traced []*opResult
	opsStart := time.Now()
	deadline := opsStart.Add(budget)
	for i := 0; ; i++ {
		profiled := trace && i%2 == 1
		r := runOp(p, tr, rss, profiled)
		if i == 0 {
			rep.first = r
		} else if msg := sameOutputs(rep.first, r); msg != "" {
			r.problems = append(r.problems, msg)
		}
		if len(r.problems) > 0 && r.failed == 0 {
			r.failed = r.jobs
		}
		rep.attempted += r.jobs
		rep.failed += r.failed
		rep.problems = append(rep.problems, r.problems...)
		rep.walls = append(rep.walls, r.wall)
		rep.cpus = append(rep.cpus, r.cpu)
		if profiled {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		// Stop before an op that would overrun the budget.
		mean := time.Since(opsStart) / time.Duration(i+1)
		if time.Now().Add(mean).After(deadline) && (!trace || len(traced) > 0) {
			break
		}
	}
	if rep.first.failed > 0 {
		rep.first = nil // no simulated outputs to report
		return rep
	}
	if trace {
		rep.metrics, rep.absent = layerMetrics(rep.first, plain, traced, builds, workers)
	} else {
		rep.metrics = endToEnd(rep.first, plain, setups)
	}
	return rep
}

// runOp runs one op, timing it and measuring its CPU and allocation cost,
// optionally under a CPU profile. A panic inside the simulator fails the op.
func runOp(p *prepared, tr *tracer, rss *rssMonitor, profiled bool) (r *opResult) {
	var ms0, ms1 runtime.MemStats
	var prof bytes.Buffer
	runtime.GC() // start every op from the same heap, not the previous op's garbage
	rss.take()
	runtime.ReadMemStats(&ms0)
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return &opResult{jobs: 1, failed: 1, problems: []string{err.Error()}}
		}
	}
	// Wall and CPU time bracket the run call alone, so the profiler's
	// start-up and its symbolization at stop are charged to neither.
	cpu0 := processCPU()
	start := time.Now()
	func() {
		defer func() {
			if v := recover(); v != nil {
				r = &opResult{jobs: 1, failed: 1, problems: []string{fmt.Sprint("panic: ", v)}}
			}
		}()
		r = p.run(tr)
	}()
	end := time.Now()
	cpu := processCPU() - cpu0
	if profiled {
		pprof.StopCPUProfile()
	}
	tr.add("run", 0, start, end)
	r.wall = end.Sub(start).Seconds()
	r.cpu = cpu
	r.peakRSSMB = rss.take()
	runtime.ReadMemStats(&ms1)
	r.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	r.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	r.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	r.gcPauseS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	if profiled && r.failed == 0 {
		self, err := foldProfile(prof.Bytes())
		if err != nil {
			r.problems = append(r.problems, err.Error())
		}
		r.profileSelf = self
	}
	if r.failed == 0 {
		r.problems = append(r.problems, checkOutputs(r)...)
	}
	return r
}

// checkOutputs checks one op's simulated outputs for plausibility.
func checkOutputs(r *opResult) []string {
	var bad []string
	if r.delivered > r.generated {
		bad = append(bad, fmt.Sprintf("delivered %d > generated %d", r.delivered, r.generated))
	}
	if !(r.pdr >= 0 && r.pdr <= 1) {
		bad = append(bad, fmt.Sprintf("PDR %g outside [0,1]", r.pdr))
	}
	if r.eventsKnown && r.events == 0 {
		bad = append(bad, "no kernel events")
	}
	if r.nodeSeconds <= 0 {
		bad = append(bad, "no simulated node-seconds")
	}
	return bad
}

// sameOutputs reports how r differs from the run's first op, which it must
// repeat exactly.
func sameOutputs(first, r *opResult) string {
	if r.failed > 0 || first.failed > 0 {
		return ""
	}
	if r.events != first.events || r.delivered != first.delivered || r.pdr != first.pdr {
		return fmt.Sprintf("op differs from the first op: events %d/%d delivered %d/%d PDR %g/%g",
			r.events, first.events, r.delivered, first.delivered, r.pdr, first.pdr)
	}
	return ""
}

// simOutputs are the simulated outputs every run of one seed must repeat.
type simOutputs struct {
	Events    uint64  `json:"events"`
	Delivered uint64  `json:"delivered"`
	PDR       float64 `json:"pdr"`
}

// checkRepeat compares the first op's simulated outputs with those an
// earlier run of the same sources, workload and seed recorded under dir, and
// records them when no earlier run did. It returns a description of any
// difference.
func checkRepeat(dir, source, workload string, seed uint64, first *opResult) (string, error) {
	if first == nil {
		return "", nil
	}
	got := simOutputs{Events: first.events, Delivered: first.delivered, PDR: first.pdr}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", source, workload, seed))
	if b, err := os.ReadFile(path); err == nil {
		var want simOutputs
		if err := json.Unmarshal(b, &want); err != nil {
			return "", fmt.Errorf("read %s: %w", path, err)
		}
		if got != want {
			return fmt.Sprintf("outputs differ from an earlier run of seed %d: %+v, earlier %+v", seed, got, want), nil
		}
		return "", nil
	}
	b, err := json.Marshal(got)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("record outputs: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return "", fmt.Errorf("record outputs: %w", err)
	}
	return "", os.Rename(tmp, path)
}

// endToEnd derives the end-to-end metrics: host metrics are medians over
// the untraced ops, simulated metrics come from the first op.
func endToEnd(first *opResult, ops []*opResult, setups []float64) map[string]metric {
	ok := okOps(ops)
	m := map[string]metric{"setup_s": {median(setups), "s"}}
	if len(ok) == 0 {
		return m
	}
	// Host seconds are the process's CPU seconds over the op, not wall
	// seconds: on a shared virtual machine the hypervisor steals 10–30% of
	// the wall clock in bursts, which CPU time does not count.
	speed := medianOf(ok, func(r *opResult) float64 { return r.nodeSeconds / r.cpu })
	m["node_s_per_s"] = metric{speed, "node-s/s"}
	m["delivered_per_s"] = metric{medianOf(ok, func(r *opResult) float64 { return float64(r.delivered) / r.cpu }), "1/s"}
	m["peak_rss_mb"] = metric{medianOf(ok, func(r *opResult) float64 { return r.peakRSSMB }), "MB"}
	m["pdr"] = metric{first.pdr, "ratio"}
	m["delay_mean_s"] = metric{first.delayMean, "s"}
	m["delay_p99_s"] = metric{first.delayP99, "s"}
	return m
}

// layerMetrics derives the per-layer split: self time per layer from the
// profiled ops, counters and host costs from the untraced ones.
func layerMetrics(first *opResult, plain, traced []*opResult, builds []float64, workers int) (map[string]metric, []string) {
	m := map[string]metric{}
	okPlain, okTraced := okOps(plain), okOps(traced)
	if len(okPlain) == 0 || len(okTraced) == 0 {
		return m, nil
	}

	var selfSum, cpuSum float64
	for _, row := range layerRows {
		var s float64
		for _, r := range okTraced {
			s += r.profileSelf[row]
		}
		selfSum += s
		m[row+".self_s"] = metric{s / float64(len(okTraced)), "s"}
	}
	for _, r := range okTraced {
		cpuSum += r.cpu
	}
	m["trace.coverage_frac"] = metric{ratio(selfSum, cpuSum), "ratio"}
	m["trace.overhead_frac"] = metric{
		medianOf(okTraced, func(r *opResult) float64 { return r.wall })/
			medianOf(okPlain, func(r *opResult) float64 { return r.wall }) - 1, "ratio"}

	m["topo.build_s"] = metric{median(builds), "s"}
	m["go.alloc_mb"] = metric{medianOf(okPlain, func(r *opResult) float64 { return r.allocMB }), "MB"}
	m["go.mallocs"] = metric{medianOf(okPlain, func(r *opResult) float64 { return r.mallocs }), "count"}
	m["go.gc_cycles"] = metric{medianOf(okPlain, func(r *opResult) float64 { return r.gcCycles }), "count"}
	m["go.gc_pause_s"] = metric{medianOf(okPlain, func(r *opResult) float64 { return r.gcPauseS }), "s"}
	m["scenario.worker_idle_frac"] = metric{medianOf(okPlain, func(r *opResult) float64 {
		return 1 - r.cpu/(r.wall*float64(workers))
	}), "ratio"}

	js := medianJobStats(okPlain, workers)
	m["stats.jobs"] = metric{float64(okPlain[0].jobs), "count"}
	m["stats.job_p50_s"] = metric{js.p50, "s"}
	m["stats.job_max_s"] = metric{js.max, "s"}
	m["stats.worker_idle_frac"] = metric{js.idle, "ratio"}
	m["stats.makespan_over_ideal"] = metric{js.overIdeal, "ratio"}

	var absent []string
	if first.eventsKnown {
		m["sim.events"] = metric{float64(first.events), "count"}
		m["sim.ns_per_event"] = metric{medianOf(okPlain, func(r *opResult) float64 { return r.wall * 1e9 / float64(r.events) }), "ns"}
		m["sim.events_per_delivered"] = metric{ratio(float64(first.events), float64(first.delivered)), "ratio"}
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; ok {
			continue
		}
		if v, ok := first.counters[d.Name]; ok {
			m[d.Name] = metric{v, d.Unit}
			continue
		}
		absent = append(absent, d.Name)
		m[d.Name] = metric{0, d.Unit}
	}
	return m, absent
}

// jobStats summarizes the per-job spans of one op.
type jobStats struct{ p50, max, idle, overIdeal float64 }

func medianJobStats(ops []*opResult, workers int) jobStats {
	per := make([]jobStats, 0, len(ops))
	for _, r := range ops {
		spans := r.jobSpans
		if len(spans) == 0 {
			// A single-run op is one job spanning the whole run call.
			spans = []span{{Start: 0, End: r.wall}}
		}
		w := workers
		if len(spans) < w {
			w = len(spans)
		}
		durs := make([]float64, len(spans))
		lo, hi := math.Inf(1), math.Inf(-1)
		var busy float64
		for i, s := range spans {
			durs[i] = s.dur()
			busy += durs[i]
			lo, hi = math.Min(lo, s.Start), math.Max(hi, s.End)
		}
		sort.Float64s(durs)
		makespan := hi - lo
		ideal := math.Max(busy/float64(w), durs[len(durs)-1])
		per = append(per, jobStats{
			p50:       durs[nearestRank(len(durs), 0.5)],
			max:       durs[len(durs)-1],
			idle:      1 - busy/(makespan*float64(w)),
			overIdeal: makespan / ideal,
		})
	}
	pick := func(f func(j jobStats) float64) float64 {
		v := make([]float64, len(per))
		for i, j := range per {
			v[i] = f(j)
		}
		return median(v)
	}
	return jobStats{
		p50:       pick(func(j jobStats) float64 { return j.p50 }),
		max:       pick(func(j jobStats) float64 { return j.max }),
		idle:      pick(func(j jobStats) float64 { return j.idle }),
		overIdeal: pick(func(j jobStats) float64 { return j.overIdeal }),
	}
}

func okOps(ops []*opResult) []*opResult {
	var ok []*opResult
	for _, r := range ops {
		if r.failed == 0 && len(r.problems) == 0 {
			ok = append(ok, r)
		}
	}
	return ok
}

func medianOf(ops []*opResult, f func(*opResult) float64) float64 {
	v := make([]float64, len(ops))
	for i, r := range ops {
		v[i] = f(r)
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// nearestRank is the index of the q-quantile of n sorted values.
func nearestRank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(n-1, i))
}

// processCPU is the process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// span is one harness-side interval: a set-up, a run call or one
// replication job on a worker, in seconds since the tracer started.
type span struct {
	Name   string  `json:"name"`
	Worker int     `json:"worker"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps the harness's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns it; it is safe for concurrent jobs.
func (t *tracer) add(name string, worker int, start, end time.Time) span {
	s := span{Name: name, Worker: worker, Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
