package radio

import (
	"fmt"
	"math"
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
)

// BenchmarkShardedMediumCells measures the sharded hot path at the radio
// layer: C independent cell mediums advanced epoch by epoch, each epoch
// starting transmissions in every cell, mirroring the edge transmissions
// into the next cell's busy accounting (ScheduleForeignBusy) and probing
// CCA against the raised counters. One op is one epoch across all C cells —
// the unit the scenario-level scheduler (and its lock-step test reference)
// repeats per cell — so the ns/op must stay ~linear in C for the scale-out
// to hold; the perf gate pins it against the BENCH snapshot.
func BenchmarkShardedMediumCells(b *testing.B) {
	const nodesPerCell = 64
	const epoch = 5 * sim.Millisecond
	for _, cells := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("C=%d", cells), func(b *testing.B) {
			kernels := make([]*sim.Kernel, cells)
			mediums := make([]*Medium, cells)
			side := 200 * math.Sqrt(float64(nodesPerCell)/100)
			for c := range mediums {
				rng := sim.NewRand(uint64(c + 1))
				pos := make([]Position, nodesPerCell)
				for i := range pos {
					pos[i] = Position{X: rng.Float64() * side, Y: rng.Float64() * side}
				}
				kernels[c] = sim.NewKernel()
				mediums[c] = NewMedium(kernels[c], NewPathLossTopology(DefaultPathLossConfig(), pos), sim.NewRand(1))
				for id := 0; id < nodesPerCell; id++ {
					mediums[c].Attach(frame.NodeID(id), HandlerFunc(func(*frame.Frame) {}))
				}
			}
			f := &frame.Frame{Kind: frame.Data, Dst: frame.Broadcast, MPDUBytes: 50}
			b.ReportAllocs()
			b.ResetTimer()
			now := sim.Time(0)
			for i := 0; i < b.N; i++ {
				for c, m := range mediums {
					// A handful of transmitters per cell, rotating so the
					// busy counters see fresh rows; the edge TX of each cell
					// is mirrored into the next cell one epoch later.
					for j := 0; j < 4; j++ {
						src := frame.NodeID((i*4 + j) % nodesPerCell)
						if m.Transmitting(src) {
							continue
						}
						f.Src = src
						end := m.StartTX(src, f, 0)
						if j == 0 && cells > 1 {
							next := mediums[(c+1)%cells]
							next.ScheduleForeignBusy(src, f.Channel, now+epoch, end+epoch)
						}
					}
					m.CCA(frame.NodeID(i % nodesPerCell))
				}
				now += epoch
				for c := range kernels {
					kernels[c].Run(now)
				}
			}
		})
	}
}
