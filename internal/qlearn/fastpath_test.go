package qlearn

import (
	"math"
	"testing"
)

// passThrough hides a table's concrete type, so a Learner over it takes the
// generic interface path of Observe instead of the direct *FloatTable one.
type passThrough struct{ Table }

// FuzzLearnerFastPath drives identical Observe scripts through a learner
// over a *FloatTable (direct path) and one over the same table behind
// passThrough (generic path), and requires every returned value, Q-value and
// policy entry to be bit-equal after every step. The header bytes pick the
// update rule, the reevalOnDecay ablation, the dimensions and the
// hyperparameters; each further 4-byte group is one (s, a, r, next) tuple.
// Committed seeds live in testdata/fuzz.
func FuzzLearnerFastPath(f *testing.F) {
	f.Add([]byte{0, 7, 2, 3, 9, 4, 0, 2, 16, 1, 0, 1, 252, 1, 0, 0, 4, 0})
	f.Add([]byte{5, 3, 11, 7, 10, 0, 1, 4, 200, 2, 1, 5, 8, 0, 2, 3, 128, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		rule := UpdateRule(data[0] % 3)
		reeval := data[0]&4 != 0
		states, actions := int(data[1]%8)+1, int(data[2]%12)+1
		p := Params{
			Alpha: float64(data[3]%8+1) / 8,
			Gamma: float64(data[4]%11) / 10,
			Xi:    float64(data[5]%5) / 2,
			InitQ: -10,
			Rule:  rule,
		}
		direct := NewLearner(NewFloatTable(states, actions, p), 0)
		generic := NewLearner(passThrough{NewFloatTable(states, actions, p)}, 0)
		if direct.float == nil || generic.float != nil {
			t.Fatal("learners do not take the intended paths")
		}
		direct.SetReevalOnDecay(reeval)
		generic.SetReevalOnDecay(reeval)
		for i := 6; i+3 < len(data); i += 4 {
			s, a := int(data[i])%states, int(data[i+1])%actions
			r, next := float64(int8(data[i+2]))/4, int(data[i+3])%states
			got, want := direct.Observe(s, a, r, next), generic.Observe(s, a, r, next)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (%s, reeval=%v): Observe = %v, generic %v", i/4, rule, reeval, got, want)
			}
			for st := 0; st < states; st++ {
				if direct.Policy(st) != generic.Policy(st) {
					t.Fatalf("step %d (%s, reeval=%v): π(%d) = %d, generic %d",
						i/4, rule, reeval, st, direct.Policy(st), generic.Policy(st))
				}
				for ac := 0; ac < actions; ac++ {
					dq, gq := direct.Table().Q(st, ac), generic.Table().Q(st, ac)
					if math.Float64bits(dq) != math.Float64bits(gq) {
						t.Fatalf("step %d (%s, reeval=%v): Q(%d,%d) = %v, generic %v",
							i/4, rule, reeval, st, ac, dq, gq)
					}
				}
			}
		}
	})
}

// TestLearnerObserveDoesNotAllocate pins the float learner's step at zero
// heap allocations: Observe runs at every backlogged subslot of every node.
func TestLearnerObserveDoesNotAllocate(t *testing.T) {
	l := NewLearner(NewFloatTable(54, 3, DefaultParams()), 0)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		l.Observe(i%54, i%3, float64(i%7)-3, (i+1)%54)
		i++
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f objects per call, want 0", allocs)
	}
}

// TestLearnerRejectsWidePolicy pins the one-byte policy bound.
func TestLearnerRejectsWidePolicy(t *testing.T) {
	NewLearner(NewFloatTable(1, MaxPolicyActions, DefaultParams()), MaxPolicyActions-1)
	defer func() {
		if recover() == nil {
			t.Error("NewLearner accepted more actions than a policy entry holds")
		}
	}()
	NewLearner(NewFloatTable(1, MaxPolicyActions+1, DefaultParams()), 0)
}
