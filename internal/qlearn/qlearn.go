// Package qlearn implements the distributed, cooperative multi-agent
// Q-learning core of the paper (§3): the Lauer/Riedmiller optimistic update
// for cooperative multi-agent systems, the paper's extension for stochastic
// environments (penalty ξ and learning rate α, Eq. 4/5), the separate policy
// table that resolves duplicate optima (Eq. 3), and the exploration
// strategies of §4.2 (parameter-based, ε-greedy, constant).
//
// Value storage is pluggable behind the Table interface: a float64 table, a
// fixed-point Q8.8 table for devices without a floating-point unit (§3.2),
// and a saturating 8-bit table exercising the paper's future-work claim that
// 2–8 bits per Q-value suffice (§7).
package qlearn

import "fmt"

// UpdateRule selects which Bellman-style update a table applies.
type UpdateRule uint8

const (
	// RuleQMA is the paper's Eq. 5: optimistic max with penalty ξ and
	// learning rate α. This is what QMA runs.
	RuleQMA UpdateRule = iota
	// RuleOptimistic is the original Lauer/Riedmiller Eq. 2: keep the maximum
	// of the stored and newly computed value (ξ=0, α=1). It is vulnerable to
	// stochastic outcomes (Tbl. 3) and exists for unit tests and ablations.
	RuleOptimistic
	// RuleStandard is plain Watkins Q-learning, Eq. 1. It does not achieve
	// multi-agent cooperation (Tbl. 1) and exists for tests and ablations.
	RuleStandard
)

// String implements fmt.Stringer.
func (r UpdateRule) String() string {
	switch r {
	case RuleQMA:
		return "qma"
	case RuleOptimistic:
		return "optimistic"
	case RuleStandard:
		return "standard"
	default:
		return fmt.Sprintf("UpdateRule(%d)", uint8(r))
	}
}

// Params holds the learning hyperparameters. The zero value is not useful;
// start from DefaultParams.
type Params struct {
	// Alpha is the learning rate α. The paper uses 0.5, which embedded
	// implementations realize as a right shift by one.
	Alpha float64
	// Gamma is the discount factor γ (paper: 0.9).
	Gamma float64
	// Xi is the penalty ξ subtracted when an update would lower the stored
	// value (Eq. 4/5); it makes the optimistic rule track stochastic
	// environments. Ignored by RuleOptimistic and RuleStandard.
	Xi float64
	// InitQ is the initial Q-value. Conceptually −∞; the paper initializes
	// to −10, any value below the largest punishment works (§4.1).
	InitQ float64
	// Rule selects the update rule; the zero value is RuleQMA.
	Rule UpdateRule
}

// DefaultParams returns the hyperparameters of the paper's evaluation:
// α=0.5, γ=0.9, ξ=2, Q₀=−10, Eq. 5 updates.
func DefaultParams() Params {
	return Params{Alpha: 0.5, Gamma: 0.9, Xi: 2, InitQ: -10, Rule: RuleQMA}
}

// Validate reports a descriptive error for unusable hyperparameters.
func (p Params) Validate() error {
	switch {
	case p.Alpha <= 0 || p.Alpha > 1:
		return fmt.Errorf("qlearn: alpha=%v out of (0,1]", p.Alpha)
	case p.Gamma < 0 || p.Gamma > 1:
		return fmt.Errorf("qlearn: gamma=%v out of [0,1]", p.Gamma)
	case p.Xi < 0:
		return fmt.Errorf("qlearn: xi=%v must be non-negative", p.Xi)
	case p.Rule > RuleStandard:
		return fmt.Errorf("qlearn: unknown rule %d", p.Rule)
	}
	return nil
}

// Table stores Q-values for a finite state × action space and applies the
// configured update rule. Implementations are not safe for concurrent use;
// each agent owns its private table (the whole point of the paper's
// distributed algorithm is that no global table exists at runtime).
type Table interface {
	// States reports the number of states.
	States() int
	// Actions reports the number of actions per state.
	Actions() int
	// Q reports the stored value for (s, a), converted to float64 for
	// fixed-point implementations.
	Q(s, a int) float64
	// SetQ overwrites the stored value (used by cautious startup and tests).
	SetQ(s, a int, v float64)
	// Update applies the table's rule for reward r observed after taking a in
	// s and landing in next. It returns the resulting stored value and
	// whether the newly computed target strictly exceeded the previous stored
	// value (the Eq. 3 policy-improvement condition).
	Update(s, a int, r float64, next int) (stored float64, improved bool)
	// MaxQ reports max_a Q(s, a).
	MaxQ(s int) float64
	// ArgMax reports the smallest action index attaining MaxQ(s).
	ArgMax(s int) int
	// Reset restores every entry to the initial value.
	Reset()
	// MemoryBytes reports the value-storage footprint in bytes — the figure
	// behind the paper's §3.2 resource argument (the same table costs 648
	// bytes in float64, 324 in Q8.8 and 162 in 8-bit storage).
	MemoryBytes() int
}

// FloatTable is the reference float64 implementation of Table.
type FloatTable struct {
	p       Params
	states  int
	actions int
	q       []float64
}

var _ Table = (*FloatTable)(nil)

// NewFloatTable returns a states × actions table initialized to p.InitQ.
// It panics on invalid parameters or non-positive dimensions.
func NewFloatTable(states, actions int, p Params) *FloatTable {
	return NewFloatTableOn(states, actions, p, nil)
}

// NewFloatTableOn is NewFloatTable placing the values in backing, which must
// hold exactly states × actions elements (a slab slice from a run arena).
// nil backing allocates privately.
func NewFloatTableOn(states, actions int, p Params, backing []float64) *FloatTable {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if states <= 0 || actions <= 0 {
		panic(fmt.Sprintf("qlearn: table dimensions %dx%d", states, actions))
	}
	if backing == nil {
		backing = make([]float64, states*actions)
	} else if len(backing) != states*actions {
		panic(fmt.Sprintf("qlearn: backing holds %d values, want %d", len(backing), states*actions))
	}
	t := &FloatTable{p: p, states: states, actions: actions, q: backing}
	t.Reset()
	return t
}

// Params returns the table's hyperparameters.
func (t *FloatTable) Params() Params { return t.p }

// States implements Table.
func (t *FloatTable) States() int { return t.states }

// Actions implements Table.
func (t *FloatTable) Actions() int { return t.actions }

func (t *FloatTable) idx(s, a int) int { return s*t.actions + a }

// row returns the values of state s, aliasing the table.
func (t *FloatTable) row(s int) []float64 { return t.q[s*t.actions : (s+1)*t.actions] }

// Q implements Table.
func (t *FloatTable) Q(s, a int) float64 { return t.q[t.idx(s, a)] }

// SetQ implements Table.
func (t *FloatTable) SetQ(s, a int, v float64) { t.q[t.idx(s, a)] = v }

// MaxQ implements Table.
func (t *FloatTable) MaxQ(s int) float64 {
	row := t.row(s)
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// ArgMax implements Table.
func (t *FloatTable) ArgMax(s int) int {
	row := t.row(s)
	best := 0
	for a := 1; a < len(row); a++ {
		if row[a] > row[best] {
			best = a
		}
	}
	return best
}

// Update implements Table.
func (t *FloatTable) Update(s, a int, r float64, next int) (float64, bool) {
	old := t.Q(s, a)
	target := r + t.p.Gamma*t.MaxQ(next)
	var stored float64
	switch t.p.Rule {
	case RuleStandard: // Eq. 1
		stored = (1-t.p.Alpha)*old + t.p.Alpha*target
	case RuleOptimistic: // Eq. 2
		stored = old
		if target > stored {
			stored = target
		}
	default: // RuleQMA, Eq. 5
		newV := (1-t.p.Alpha)*old + t.p.Alpha*target
		stored = old - t.p.Xi
		if newV > stored {
			stored = newV
		}
	}
	t.SetQ(s, a, stored)
	return stored, stored > old
}

// Reset implements Table.
func (t *FloatTable) Reset() {
	for i := range t.q {
		t.q[i] = t.p.InitQ
	}
}

// MemoryBytes implements Table: 8 bytes per entry.
func (t *FloatTable) MemoryBytes() int { return len(t.q) * 8 }
