// Package experiments regenerates every table and figure of the paper's
// evaluation (§6 and Appendix A). Each runner returns one or more Tables —
// plain rows ready for text rendering — so the same code backs the
// qma-experiments binary, the benchmark harness and EXPERIMENTS.md.
//
// Runners accept a Mode so that `go test -bench` finishes in minutes (Quick)
// while `qma-experiments -full` reproduces paper-scale parameters (Full):
// the paper uses 1000 packets per source and 10–15 repetitions per point.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/stats"
)

// runGrid is the experiments' sweep entry point: it threads one scenario.Arena
// per worker into the replications, so the back-to-back runs of a sweep
// recycle their frame pools and per-node hot-state slabs instead of
// re-allocating them thousands of times. Arenas are invisible to the
// simulation (results are byte-identical with or without them); fn must pass
// the arena into its run's config and nothing else.
func runGrid(cells, reps, parallel int, fn func(arena *scenario.Arena, cell int, seed uint64) map[string]float64) ([]map[string]stats.Estimate, []*stats.RepError) {
	arenas := make([]*scenario.Arena, stats.Workers(parallel))
	return stats.ReplicateGridWorker(cells, reps, parallel,
		func(w, cell int, seed uint64) map[string]float64 {
			if arenas[w] == nil {
				arenas[w] = scenario.NewArena()
			}
			return fn(arenas[w], cell, seed)
		})
}

// Mode scales an experiment between bench-friendly and paper-scale runs.
type Mode struct {
	// Name tags the mode in output.
	Name string
	// Reps is the number of independent replications per point.
	Reps int
	// Packets is the number of evaluation packets per source.
	Packets int
	// Parallel bounds the worker pool that shards independent replications
	// and sweep points (0 = GOMAXPROCS, 1 = sequential). Results are
	// byte-identical for every value: each job derives all randomness from
	// its seed and merging is order-independent.
	Parallel int
	// Warmup is the management/formation time before evaluation traffic.
	Warmup sim.Time
	// DSMEDuration and DSMEWarmup size the §6.3 data-collection runs.
	DSMEDuration, DSMEWarmup sim.Time
}

// Quick returns the reduced mode used by `go test -bench`. Replications run
// on all hardware threads (Parallel 0 = GOMAXPROCS).
func Quick() Mode {
	return Mode{
		Name:         "quick",
		Reps:         3,
		Packets:      300,
		Parallel:     0,
		Warmup:       40 * sim.Second,
		DSMEDuration: 400 * sim.Second,
		DSMEWarmup:   150 * sim.Second,
	}
}

// Full returns the paper-scale mode (15 repetitions, 1000 packets, 100 s
// association phase, 200 s DSME warm-up), replicated on all hardware
// threads.
func Full() Mode {
	return Mode{
		Name:         "full",
		Reps:         15,
		Packets:      1000,
		Parallel:     0,
		Warmup:       100 * sim.Second,
		DSMEDuration: 1000 * sim.Second,
		DSMEWarmup:   200 * sim.Second,
	}
}

// Golden returns the reduced deterministic mode behind the committed
// regression digests (testdata/golden/*.json): one replication, short runs.
// The digests are not statistically meaningful — they exist to pin
// byte-identical simulator behaviour, so `go test` fails loudly on any
// accidental behavioural drift instead of depending on manual RunAll
// diffing. Regenerate with
// `go test ./internal/experiments -run TestGoldenTraces -update-golden`.
func Golden() Mode {
	return Mode{
		Name:         "golden",
		Reps:         1,
		Packets:      100,
		Parallel:     0,
		Warmup:       20 * sim.Second,
		DSMEDuration: 120 * sim.Second,
		DSMEWarmup:   50 * sim.Second,
	}
}

// Table is a rendered experiment result.
type Table struct {
	// ID names the paper artefact ("Fig. 7"), Title describes it.
	ID, Title string
	// Columns and Rows hold the payload.
	Columns []string
	Rows    [][]string
	// Notes carry caveats and observations for EXPERIMENTS.md.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner regenerates one paper artefact (possibly several related tables).
type Runner func(Mode) []*Table

// registry maps experiment ids to runners, populated by the per-figure
// files' init functions.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs lists the registered experiment ids in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the runner registered under id; ok is false for unknown ids.
func Run(id string, mode Mode) (tables []*Table, ok bool) {
	r, ok := registry[id]
	if !ok {
		return nil, false
	}
	return r(mode), true
}

// RunAll executes every registered experiment in id order.
func RunAll(mode Mode, w io.Writer) {
	for _, id := range IDs() {
		tables, _ := Run(id, mode)
		for _, t := range tables {
			t.Render(w)
		}
	}
}

// f2, f3 and pct format cells.
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// ci renders "mean ±hw".
func ci(mean, hw float64) string { return fmt.Sprintf("%.3f ±%.3f", mean, hw) }

// noteRepErrors records replications the hardened pool had to drop (panicked
// twice) as a table note, so a degraded sweep is visibly degraded in every
// rendering. On a clean run it appends nothing — golden digests stay
// byte-identical.
func noteRepErrors(t *Table, errs []*stats.RepError) {
	if len(errs) == 0 {
		return
	}
	parts := make([]string, len(errs))
	for i, e := range errs {
		parts[i] = fmt.Sprintf("cell %d seed %d (%v)", e.Cell, e.Seed, e.Value)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d replication(s) lost to panics and excluded from the estimates: %s",
		len(errs), strings.Join(parts, "; ")))
}
