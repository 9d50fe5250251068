package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
	"qma/internal/topo"
)

// runShardedReference is RunSharded with the dependency-driven scheduler
// replaced by the lock-step reference — the oracle the scheduler tests and
// BenchmarkRunShardedWorkers/lockstep=1 compare against.
func runShardedReference(cfg ShardedConfig) *ShardedResult {
	sh := prepareSharded(cfg)
	runShardedLockstep(sh)
	return sh.collect()
}

// runShardedLockstep drives the cells with the reference scheduler: one
// global barrier per epoch — every cell runs the epoch in cell order — then
// an exchange of the recorded edge transmissions in cell order. It is
// trivially deterministic. It exits early once every cell has exhausted its
// event budget (res.Epochs counts only epochs in which some cell could still
// run, which keeps it equal to the dependency scheduler's max per-cell epoch
// count).
func runShardedLockstep(sh *shardedRun) {
	cells, res, epoch, duration := sh.cells, sh.res, sh.res.EpochLen, sh.cfg.Duration
	// inbox[c] buffers cell c's injections: filled by the exchange, drained
	// at the next epoch's start.
	inbox := make([][]foreignInj, len(cells))
	for now := sim.Time(0); now < duration; {
		allExhausted := true
		for _, sc := range cells {
			if !sc.run.Kernel.BudgetExhausted() {
				allExhausted = false
				break
			}
		}
		if allExhausted {
			break
		}
		end := now + epoch
		if end > duration {
			end = duration
		}
		for c, sc := range cells {
			if sc.run.Kernel.BudgetExhausted() {
				continue
			}
			for _, inj := range inbox[c] {
				sc.run.Medium.ScheduleForeignBusy(inj.node, inj.channel, inj.start, inj.end)
			}
			res.Cells[c].ForeignBusy += uint64(len(inbox[c]))
			inbox[c] = inbox[c][:0]
			sc.run.Kernel.Run(end)
		}
		for c, sc := range cells {
			for _, tx := range sc.outbox {
				for _, tgt := range sh.edgeTargets(c, tx.src) {
					if cells[tgt.Cell].run.Kernel.BudgetExhausted() {
						continue
					}
					// Mirrored one epoch late: the earliest possible start
					// (epoch begin + epoch) is exactly the next barrier, so
					// the injection is never in the target kernel's past.
					inbox[tgt.Cell] = append(inbox[tgt.Cell], foreignInj{
						node:    tgt.Node,
						channel: tx.channel,
						start:   tx.start + epoch,
						end:     tx.end + epoch,
					})
				}
			}
			sc.outbox = sc.outbox[:0]
		}
		res.Epochs++
		now = end
	}
}

// TestShardedDependencyMatchesLockstep is the scheduler-equivalence
// contract: the dependency-driven scheduler must be byte-identical to the
// lock-step reference — per-cell events, digests, windows, radio counters,
// foreign-busy counts, epoch count — at every worker count.
func TestShardedDependencyMatchesLockstep(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{Nodes: 280, CellsX: 2, CellsY: 2, Seed: 21})
	cfg := ShardedConfig{
		City:     city,
		Seed:     21,
		Duration: 2 * sim.Second,
		Rate:     2.0,
		StartAt:  sim.Second / 2,
		Parallel: 1,
	}
	ref := runShardedReference(cfg)
	if ref.NetworkPDR() <= 0 || ref.Events == 0 {
		t.Fatalf("degenerate reference run: PDR %v, events %d", ref.NetworkPDR(), ref.Events)
	}
	for _, workers := range []int{1, 2, 4} {
		dep := cfg
		dep.Parallel = workers
		got := RunSharded(dep)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("dependency-driven run (parallel=%d) differs from lock-step reference:\n%+v\n%+v",
				workers, got, ref)
		}
	}
}

// TestShardedHotCellDeterministic pins the scheduler on the workload it was
// built for: one cell with roughly 10× the per-cell load of the others, so
// under lock-step every other cell idles at the barrier while the hot cell
// finishes. The result must still be byte-identical across worker counts
// and against the lock-step reference. Runs in -short so CI exercises it
// under -race.
func TestShardedHotCellDeterministic(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{
		Nodes: 240, CellsX: 2, CellsY: 2, Seed: 33,
		HotspotCell: 0, HotspotFraction: 0.7,
	})
	hot, rest := city.Cells[0].NumNodes(), 0
	for _, net := range city.Cells[1:] {
		rest += net.NumNodes()
	}
	if hot*2 < rest*3 {
		t.Fatalf("hotspot cell holds %d nodes vs %d elsewhere — not imbalanced enough", hot, rest)
	}
	cfg := ShardedConfig{
		City:     city,
		Seed:     33,
		Duration: 2 * sim.Second,
		Rate:     2.0,
		StartAt:  sim.Second / 2,
		Parallel: 1,
	}
	ref := runShardedReference(cfg)
	if ref.NetworkPDR() <= 0 {
		t.Fatalf("degenerate run: PDR %v", ref.NetworkPDR())
	}
	for _, workers := range []int{1, 2, 4} {
		dep := cfg
		dep.Parallel = workers
		got := RunSharded(dep)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("hot-cell run (parallel=%d) differs from lock-step reference:\n%+v\n%+v",
				workers, got, ref)
		}
	}
}

// TestShardedBudgetEarlyExit pins the early-exit satellite: once every
// cell's event budget is exhausted the epoch loop must stop instead of
// spinning empty epochs to Duration, in the scheduler and the reference,
// with identical truncated results and epoch counts.
func TestShardedBudgetEarlyExit(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{Nodes: 240, CellsX: 2, CellsY: 2, Seed: 4})
	cfg := ShardedConfig{
		City:        city,
		Seed:        4,
		Duration:    30 * sim.Second,
		Rate:        2.0,
		StartAt:     sim.Second / 4,
		EventBudget: 20_000,
		Parallel:    2,
	}
	ref := runShardedReference(cfg)
	if !ref.Truncated {
		t.Fatal("budget did not truncate the run; raise Duration or lower EventBudget")
	}
	total := totalEpochs(cfg.Duration, ref.EpochLen)
	if ref.Epochs >= total {
		t.Fatalf("lock-step ran %d epochs of %d despite exhausted budgets — no early exit", ref.Epochs, total)
	}
	got := RunSharded(cfg)
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("truncated dependency-driven run differs from lock-step reference:\n%+v\n%+v", got, ref)
	}
	for i := range ref.Cells {
		if !ref.Cells[i].Truncated {
			t.Errorf("cell %d not truncated — early exit should only fire once every cell is done", i)
		}
	}
}

// TestShardedLockstepFullDurationEpochs pins that a run whose budget never
// exhausts still executes every epoch interval (the early exit must not
// fire spuriously) and that the scheduler and the reference agree on the
// count.
func TestShardedLockstepFullDurationEpochs(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{Nodes: 120, CellsX: 1, CellsY: 1, Seed: 2})
	cfg := ShardedConfig{
		City:     city,
		Seed:     2,
		Duration: sim.Second,
		Rate:     1.0,
	}
	ref := runShardedReference(cfg)
	if want := totalEpochs(cfg.Duration, ref.EpochLen); ref.Epochs != want {
		t.Fatalf("lock-step executed %d epochs, want %d", ref.Epochs, want)
	}
	if got := RunSharded(cfg); got.Epochs != ref.Epochs {
		t.Fatalf("dependency-driven executed %d epochs, lock-step %d", got.Epochs, ref.Epochs)
	}
}

// TestShardedCellPanicPropagates pins RunSharded's contract that a panic
// inside a cell's epoch propagates instead of being dropped: the boundary
// enumeration starts panicking for cell 2 once the run is under way, and
// RunSharded must panic naming the epoch failure, the cell and the panic
// value at every worker count. Runs in -short so CI exercises it under
// -race.
func TestShardedCellPanicPropagates(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{Nodes: 240, CellsX: 2, CellsY: 2, Seed: 5})
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		cfg := ShardedConfig{
			City:     city,
			Seed:     5,
			Duration: 2 * sim.Second,
			Rate:     2.0,
			StartAt:  sim.Second / 2,
			Parallel: workers,
		}
		cfg.edgeTargets = func(cell int, src frame.NodeID) []topo.BoundaryTarget {
			if cell == 2 && calls.Add(1) > 80 {
				panic("boundary enumeration exploded")
			}
			return city.EdgeTargets(cell, src)
		}
		msg := func() (msg string) {
			defer func() {
				if v := recover(); v != nil {
					msg = fmt.Sprint(v)
				}
			}()
			RunSharded(cfg)
			return "no panic"
		}()
		for _, want := range []string{"sharded epoch failed", "cell 2", "boundary enumeration exploded"} {
			if !strings.Contains(msg, want) {
				t.Errorf("parallel=%d: RunSharded panic %q, want it to contain %q", workers, msg, want)
			}
		}
	}
}
