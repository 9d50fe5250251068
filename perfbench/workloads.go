package main

import (
	"fmt"
	"sort"
	"time"

	"qma/internal/csma"
	"qma/internal/dsme"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/topo"
)

// shape sizes one workload. The benchmark runs each workload at its full
// shape; the tests run the same code at a tiny one.
type shape struct {
	Nodes   int     // city devices; dsme_sweep uses the four ring sizes
	Cells   int     // city cells per side
	Seconds float64 // simulated duration of one run
	Warmup  float64 // dsme_sweep: simulated warm-up before measuring
	Rate    float64 // evaluation packets per second per routed device
	Reps    int     // dsme_sweep replications per grid point
}

// workload is one benchmark input and how to set it up from a seed.
type workload struct {
	name  string
	full  shape
	tiny  shape
	setup func(seed uint64, s shape, workers int) *prepared
}

// workers is the number of host workers every workload runs on. On a
// two-vCPU virtual machine two workers' throughput is bimodal from run to
// run (city measured 23.6k–36.0k node-s/s over five seeds, dsme_sweep
// 19.6k–27.0k), which no run length averages out; one worker keeps the
// run-to-run spread within a few percent. The sharded scheduler and the
// replication pool run the same code with one worker.
const workers = 1

// prepared is a set-up workload: topoBuildS is the part of the set-up spent
// building the topology, run executes one op. Every op repeats the same
// inputs.
type prepared struct {
	topoBuildS float64
	run        func(tr *tracer) *opResult
}

// opResult is what one op produced, with the simulated outputs the checks
// compare across ops and the layer counters its APIs expose.
type opResult struct {
	jobs, failed int
	nodeSeconds  float64 // simulated node-seconds, summed over jobs
	generated    uint64
	delivered    uint64
	pdr          float64
	delayMean    float64
	delayP99     float64
	delaySamples uint64
	events       uint64 // 0 when the workload's API does not expose it
	eventsKnown  bool
	counters     map[string]float64
	problems     []string
	jobSpans     []span
	wall, cpu    float64 // host seconds of the run call
	peakRSSMB    float64
	allocMB      float64
	mallocs      float64
	gcCycles     float64
	gcPauseS     float64
	profileSelf  map[string]float64
}

// workloads lists the benchmark's inputs; see README.md for why each exists.
var workloads = []workload{
	{
		name: "city",
		full: shape{Nodes: 8000, Cells: 8, Seconds: 20, Rate: 0.1},
		tiny: shape{Nodes: 400, Cells: 2, Seconds: 8, Rate: 0.1},
		setup: func(seed uint64, s shape, workers int) *prepared {
			return setupCity(seed, s, scenario.QMA, workers)
		},
	},
	{
		name: "city_csma",
		full: shape{Nodes: 8000, Cells: 8, Seconds: 10, Rate: 1},
		tiny: shape{Nodes: 400, Cells: 2, Seconds: 2, Rate: 1},
		setup: func(seed uint64, s shape, workers int) *prepared {
			return setupCity(seed, s, csma.ProtoUnslotted, workers)
		},
	},
	{
		name:  "dsme_sweep",
		full:  shape{Seconds: 200, Warmup: 50, Reps: 2},
		tiny:  shape{Seconds: 12, Warmup: 6, Reps: 1},
		setup: setupDSMESweep,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// deployment seeds the city's node placement. As in the repository's own
// experiments, a workload is one fixed deployment and --seed draws its
// traffic, MAC and learner streams.
const deployment = 42

// runJobs runs n independent jobs on the replication pool with the given
// number of workers, recording one span per job.
func runJobs(tr *tracer, n, workers int, job func(w, i int)) ([]span, []*stats.RepError) {
	spans := make([]span, n)
	_, errs := stats.ReplicateGridWorker(1, n, workers, func(w, _ int, rep uint64) map[string]float64 {
		start := time.Now()
		job(w, int(rep))
		spans[rep] = tr.add("job", w, start, time.Now())
		return nil
	})
	return spans, errs
}

// newJobsResult starts the result of an op made of n pool jobs, counting
// each job the pool lost to a panic as failed.
func newJobsResult(n int, spans []span, repErrs []*stats.RepError) *opResult {
	r := &opResult{jobs: n, jobSpans: spans}
	for _, e := range repErrs {
		r.jobFailed(e.Error())
	}
	return r
}

// jobFailed counts one failed job of the op.
func (r *opResult) jobFailed(problem string) {
	r.failed++
	r.problems = append(r.problems, problem)
}

// setDelivery derives the pooled PDR and mean delay from the op's totals.
func (r *opResult) setDelivery(delaySum float64) {
	r.pdr = 1
	if r.generated > 0 {
		r.pdr = float64(r.delivered) / float64(r.generated)
	}
	if r.delivered > 0 {
		r.delayMean = delaySum / float64(r.delivered)
	}
}

// setupCity builds a cell-partitioned city and runs it on the sharded
// scheduler.
func setupCity(seed uint64, s shape, mk scenario.MACKind, workers int) *prepared {
	t0 := time.Now()
	city := topo.NewCity(topo.CityConfig{Nodes: s.Nodes, CellsX: s.Cells, CellsY: s.Cells, Seed: deployment})
	build := time.Since(t0).Seconds()
	cfg := scenario.ShardedConfig{
		City:     city,
		MAC:      mk,
		Seed:     seed,
		Duration: sim.FromSeconds(s.Seconds),
		Rate:     s.Rate,
		Parallel: workers,
	}
	return &prepared{topoBuildS: build, run: func(tr *tracer) *opResult {
		start := time.Now()
		res := scenario.RunSharded(cfg)
		tr.add("job", 0, start, time.Now())
		return cityResult(res, s.Seconds)
	}}
}

func cityResult(res *scenario.ShardedResult, seconds float64) *opResult {
	d := res.DelayDigest()
	r := &opResult{
		jobs:         1,
		pdr:          res.NetworkPDR(),
		delayMean:    res.MeanDelay(),
		delayP99:     digestQuantile(&d, 0.99),
		delaySamples: d.N(),
		events:       res.Events,
		eventsKnown:  true,
	}
	if res.Truncated {
		r.problems = append(r.problems, "run truncated")
	}
	var rd radioTotals
	var edge, foreign, maxEvents float64
	for i := range res.Cells {
		c := &res.Cells[i]
		r.nodeSeconds += float64(c.Nodes) * seconds
		r.generated += c.Generated
		r.delivered += c.Delivered
		rd.add(c.Radio.TxCount, c.Radio.RxDelivered, c.Radio.RxCollided, c.Radio.CCACount, c.Radio.CCABusy)
		edge += float64(c.EdgeTx)
		foreign += float64(c.ForeignBusy)
		if e := float64(c.Events); e > maxEvents {
			maxEvents = e
		}
	}
	r.counters = map[string]float64{
		"scenario.edge_tx":                   edge,
		"scenario.foreign_busy":              foreign,
		"scenario.cross_cell_frac":           res.CrossCellFraction(),
		"scenario.cell_events_max_over_mean": ratio(maxEvents, float64(res.Events)/float64(len(res.Cells))),
	}
	rd.into(r.counters)
	noDSME(r.counters)
	return r
}

// dsmeMACs are the three MACs of the paper's §6.3 comparison.
var dsmeMACs = []scenario.MACKind{scenario.QMA, scenario.CSMASlotted, scenario.CSMAUnslotted}

// setupDSMESweep prepares the §6.3 grid: the four ring topologies × three
// MACs × Reps replications, each a dsme.RunScenario job on the replication
// pool with one arena per worker — the shape of the Fig. 21/22 experiment.
func setupDSMESweep(seed uint64, s shape, workers int) *prepared {
	t0 := time.Now()
	counts := topo.RingNodeCounts()
	nets := make([]*topo.Network, len(counts))
	for i, c := range counts {
		nets[i] = topo.RingsForCount(c)
	}
	build := time.Since(t0).Seconds()
	arenas := make([]*scenario.Arena, workers)
	for i := range arenas {
		arenas[i] = scenario.NewArena()
	}
	points := len(nets) * len(dsmeMACs)
	return &prepared{topoBuildS: build, run: func(tr *tracer) *opResult {
		jobs := make([]*dsme.ScenarioResult, points*s.Reps)
		spans, repErrs := runJobs(tr, len(jobs), workers, func(w, i int) {
			point := i / s.Reps
			jobs[i] = dsme.RunScenario(dsme.ScenarioConfig{
				Network:  nets[point/len(dsmeMACs)],
				MAC:      dsmeMACs[point%len(dsmeMACs)],
				Seed:     seed*1000 + uint64(i%s.Reps),
				Duration: sim.FromSeconds(s.Seconds),
				Warmup:   sim.FromSeconds(s.Warmup),
				Arena:    arenas[w],
			})
		})
		return dsmeResult(jobs, spans, repErrs, nets, s)
	}}
}

func dsmeResult(jobs []*dsme.ScenarioResult, spans []span, repErrs []*stats.RepError, nets []*topo.Network, s shape) *opResult {
	r := newJobsResult(len(jobs), spans, repErrs)
	var delaySum, reqSent, reqAcked, dups, allocs, okJobs float64
	var m macTotals
	// Per grid point: delivered frames and their delay sum over the reps.
	pointDelivered := make([]float64, len(jobs)/s.Reps)
	pointDelay := make([]float64, len(pointDelivered))
	for i, res := range jobs {
		if res == nil {
			continue
		}
		met := &res.Metrics
		if met.PrimaryDelivered > met.PrimaryGenerated {
			r.jobFailed(fmt.Sprintf("job %d delivered more than it generated", i))
			continue
		}
		if res.Truncated {
			r.jobFailed(fmt.Sprintf("job %d truncated", i))
			continue
		}
		okJobs++
		r.nodeSeconds += float64(nets[i/(len(dsmeMACs)*s.Reps)].NumNodes()) * s.Seconds
		r.generated += met.PrimaryGenerated
		r.delivered += met.PrimaryDelivered
		delaySum += met.PrimaryDelaySum.Seconds()
		pointDelivered[i/s.Reps] += float64(met.PrimaryDelivered)
		pointDelay[i/s.Reps] += met.PrimaryDelaySum.Seconds()
		reqSent += float64(met.RequestsSent)
		reqAcked += float64(met.RequestsAcked)
		dups += float64(met.Duplicates)
		allocs += res.AllocationsPerSecond
		for _, c := range res.CAP {
			m.add(c.TxAttempts, c.TxSuccess, c.RetryDrops, c.QueueDrops)
		}
	}
	r.setDelivery(delaySum)
	// RunScenario exposes only each run's delay sum, not single deliveries,
	// so the tail is taken over the grid points' mean delays (nearest rank).
	var pointMeans []float64
	for p, n := range pointDelivered {
		if n > 0 {
			pointMeans = append(pointMeans, pointDelay[p]/n)
		}
	}
	if len(pointMeans) > 0 {
		sort.Float64s(pointMeans)
		r.delayP99 = pointMeans[nearestRank(len(pointMeans), 0.99)]
		r.delaySamples = uint64(len(pointMeans))
	}
	r.counters = map[string]float64{
		"dsme.requests_sent":                 reqSent,
		"dsme.request_ok_ratio":              ratio(reqAcked, reqSent),
		"dsme.allocs_per_s":                  ratio(allocs, okJobs),
		"dsme.duplicates":                    dups,
		"scenario.edge_tx":                   0,
		"scenario.foreign_busy":              0,
		"scenario.cross_cell_frac":           0,
		"scenario.cell_events_max_over_mean": 1,
	}
	m.into(r.counters)
	return r
}

// macTotals and radioTotals sum the per-node MAC and medium counters into
// the mac.* and radio.* layer metrics.
type macTotals struct{ attempts, ok, retryDrops, queueDrops float64 }

func (m *macTotals) add(attempts, ok, retryDrops, queueDrops uint64) {
	m.attempts += float64(attempts)
	m.ok += float64(ok)
	m.retryDrops += float64(retryDrops)
	m.queueDrops += float64(queueDrops)
}

func (m *macTotals) into(c map[string]float64) {
	c["mac.tx_attempts"] = m.attempts
	c["mac.tx_ok_ratio"] = ratio(m.ok, m.attempts)
	c["mac.retry_drops"] = m.retryDrops
	c["mac.queue_drops"] = m.queueDrops
}

type radioTotals struct{ tx, delivered, collided, cca, ccaBusy float64 }

func (t *radioTotals) add(tx, delivered, collided, cca, ccaBusy uint64) {
	t.tx += float64(tx)
	t.delivered += float64(delivered)
	t.collided += float64(collided)
	t.cca += float64(cca)
	t.ccaBusy += float64(ccaBusy)
}

func (t *radioTotals) into(c map[string]float64) {
	c["radio.tx"] = t.tx
	c["radio.rx_delivered"] = t.delivered
	c["radio.rx_collided"] = t.collided
	c["radio.rx_ok_ratio"] = ratio(t.delivered, t.delivered+t.collided)
	c["radio.cca"] = t.cca
	c["radio.cca_busy_ratio"] = ratio(t.ccaBusy, t.cca)
}

// noDSME records that a workload runs no DSME layer: its counters are zero,
// not unknown.
func noDSME(c map[string]float64) {
	for _, k := range []string{"dsme.requests_sent", "dsme.request_ok_ratio", "dsme.allocs_per_s", "dsme.duplicates"} {
		c[k] = 0
	}
}

// digestQuantile interpolates the q-quantile of a digest linearly in rank
// between the representative values of neighbouring occupied buckets, so
// the answer moves continuously with the data instead of snapping to a
// bucket value. The bucket boundaries in rank are found by bisection over
// Digest.Quantile.
func digestQuantile(d *stats.Digest, q float64) float64 {
	n := d.N()
	switch n {
	case 0:
		return 0
	case 1:
		return d.Quantile(q)
	}
	last := int(n - 1)
	at := func(r int) float64 { return d.Quantile((float64(r) + 0.5) / float64(last)) }
	// run returns the first and last rank holding the same value as rank r.
	run := func(r int) (int, int) {
		v := at(r)
		lo := sort.Search(r+1, func(i int) bool { return at(i) == v })
		hi := r + sort.Search(last-r+1, func(i int) bool { return at(r+i) != v }) - 1
		return lo, hi
	}
	x := q * float64(last)
	r := int(x)
	lo, hi := run(r)
	mid := float64(lo+hi) / 2
	v := at(r)
	switch {
	case x < mid && lo > 0:
		plo, phi := run(lo - 1)
		pmid := float64(plo+phi) / 2
		return at(lo-1) + (v-at(lo-1))*(x-pmid)/(mid-pmid)
	case x > mid && hi < last:
		nlo, nhi := run(hi + 1)
		nmid := float64(nlo+nhi) / 2
		return v + (at(hi+1)-v)*(x-mid)/(nmid-mid)
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
