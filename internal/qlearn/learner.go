package qlearn

import "fmt"

// MaxPolicyActions is the largest action count a Learner supports: policy
// entries are stored in one byte each.
const MaxPolicyActions = 256

// Learner couples a value Table with the separate policy table π of Eq. 3.
// Lauer/Riedmiller show that storing only Q-values lets cooperating agents
// disagree when several action combinations are optimal (Tbl. 2); the policy
// table fixes this by switching actions only when a strictly greater Q-value
// is found, so all agents keep the policy that reached the optimum first.
type Learner struct {
	table Table
	// float is table as its concrete type when it is the float64 reference
	// table, so Observe updates it and scans its rows without interface
	// dispatch. Other tables copy a row into rowBuf for the same scan.
	float  *FloatTable
	rowBuf []float64
	policy []uint8
	// reevalOnDecay also re-evaluates the policy when an update lowered a
	// value (e.g. through the ξ penalty). The paper's Algorithm 1 gates the
	// policy update on improvement only; this switch exists for the ablation
	// benchmarks.
	reevalOnDecay bool
	// updates counts Observe calls, for instrumentation.
	updates uint64
}

// NewLearner returns a learner over table whose policy is initialized to
// defaultAction in every state (QMA initializes π(mt) to QBackoff,
// Algorithm 1).
func NewLearner(table Table, defaultAction int) *Learner {
	return NewLearnerOn(table, defaultAction, nil)
}

// NewLearnerOn is NewLearner placing the policy table in backing, which must
// hold exactly table.States() elements. nil backing allocates privately. It
// panics if the table has more than MaxPolicyActions actions.
func NewLearnerOn(table Table, defaultAction int, backing []uint8) *Learner {
	if table.Actions() > MaxPolicyActions {
		panic(fmt.Sprintf("qlearn: %d actions exceed the policy's %d", table.Actions(), MaxPolicyActions))
	}
	if defaultAction < 0 || defaultAction >= table.Actions() {
		panic(fmt.Sprintf("qlearn: default action %d out of range [0,%d)", defaultAction, table.Actions()))
	}
	if backing == nil {
		backing = make([]uint8, table.States())
	} else if len(backing) != table.States() {
		panic(fmt.Sprintf("qlearn: policy backing holds %d entries, want %d", len(backing), table.States()))
	}
	l := &Learner{table: table, policy: backing}
	if ft, ok := table.(*FloatTable); ok {
		l.float = ft
	} else {
		l.rowBuf = make([]float64, table.Actions())
	}
	l.fillPolicy(defaultAction)
	return l
}

func (l *Learner) fillPolicy(a int) {
	for s := range l.policy {
		l.policy[s] = uint8(a)
	}
}

// Table returns the underlying value storage.
func (l *Learner) Table() Table { return l.table }

// Policy reports π(s).
func (l *Learner) Policy(s int) int { return int(l.policy[s]) }

// SetReevalOnDecay toggles the ablation behaviour described on Learner.
func (l *Learner) SetReevalOnDecay(v bool) { l.reevalOnDecay = v }

// Updates reports how many observations have been applied.
func (l *Learner) Updates() uint64 { return l.updates }

// Observe applies one experience tuple: action a was taken in state s, the
// environment paid reward r and the agent arrived in state next. The value
// table is updated per its rule and the policy per Eq. 3: π(s) switches only
// to an action whose stored Q-value is strictly greater than the current
// policy's. Ties keep the incumbent, which is what lets multiple agents
// settle on the same optimum. It returns the stored Q-value for (s, a).
func (l *Learner) Observe(s, a int, r float64, next int) float64 {
	l.updates++
	var stored float64
	var improved bool
	if l.float != nil {
		stored, improved = l.float.Update(s, a, r, next)
	} else {
		stored, improved = l.table.Update(s, a, r, next)
	}
	if improved || l.reevalOnDecay {
		l.policy[s] = bestAction(l.row(s), l.policy[s])
	}
	return stored
}

// row returns the Q-values of state s: the float table's own row, or a copy
// of another table's values in rowBuf.
func (l *Learner) row(s int) []float64 {
	if l.float != nil {
		return l.float.row(s)
	}
	for a := range l.rowBuf {
		l.rowBuf[a] = l.table.Q(s, a)
	}
	return l.rowBuf
}

// bestAction is Eq. 3: the first action whose value is strictly greater
// than the incumbent's and every earlier candidate's, or the incumbent.
func bestAction(row []float64, incumbent uint8) uint8 {
	best, bestQ := incumbent, row[incumbent]
	for cand, q := range row {
		if q > bestQ {
			best, bestQ = uint8(cand), q
		}
	}
	return best
}

// CumulativePolicyQ reports Σ_s Q(s, π(s)) — the stability metric plotted in
// Fig. 10 and Fig. 12 ("cumulative Q-values per frame ... the sum of
// Q-values for all subslots following the best policy at that time").
func (l *Learner) CumulativePolicyQ() float64 {
	var sum float64
	for s, a := range l.policy {
		sum += l.table.Q(s, int(a))
	}
	return sum
}

// Reset restores the value table and sets every policy entry to
// defaultAction.
func (l *Learner) Reset(defaultAction int) {
	if defaultAction < 0 || defaultAction >= l.table.Actions() {
		panic(fmt.Sprintf("qlearn: default action %d out of range [0,%d)", defaultAction, l.table.Actions()))
	}
	l.table.Reset()
	l.fillPolicy(defaultAction)
	l.updates = 0
}

// PolicySnapshot returns a copy of π, for slot-utilization reports
// (Fig. 13–15).
func (l *Learner) PolicySnapshot() []int {
	out := make([]int, len(l.policy))
	for s, a := range l.policy {
		out[s] = int(a)
	}
	return out
}
