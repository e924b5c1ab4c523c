// Package threeweight implements the 3-weight pseudo-random BIST baseline of
// the paper's reference [10] ("3-Weight Pseudo-Random Test Generation Based
// on a Deterministic Test Set"), adapted to sequential circuits the way the
// paper's introduction describes: weight assignments over {0, 0.5, 1} are
// obtained by intersecting vectors of a deterministic test sequence, and
// each assignment drives the circuit for a fixed number of pseudo-random
// patterns (weight 0.5 = LFSR bit, weights 0/1 = constant).
//
// The proposed subsequence-weight method subsumes this scheme; the baseline
// exists to reproduce the comparison: 3-weight testing cannot reproduce
// time-varying subsequences, so it plateaus below the deterministic
// sequence's coverage on sequential circuits.
package threeweight

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/lfsr"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Weight is one of the three classic weights.
type Weight uint8

const (
	// W0 holds the input at 0.
	W0 Weight = iota
	// WHalf drives the input with unbiased pseudo-random bits.
	WHalf
	// W1 holds the input at 1.
	W1
)

// String returns "0", "0.5" or "1".
func (w Weight) String() string {
	switch w {
	case W0:
		return "0"
	case WHalf:
		return "0.5"
	case W1:
		return "1"
	default:
		return fmt.Sprintf("Weight(%d)", uint8(w))
	}
}

// Assignment assigns one weight per primary input.
type Assignment []Weight

// String renders e.g. "(0, 0.5, 1)".
func (a Assignment) String() string {
	s := "("
	for i, w := range a {
		if i > 0 {
			s += ", "
		}
		s += w.String()
	}
	return s + ")"
}

// Intersect derives an assignment from the vectors of seq in the time-unit
// window [lo, hi] (the intersection operation of [10]): an input whose value
// is 0 at every window time unit gets weight 0, constantly 1 gets weight 1,
// anything else gets 0.5.
func Intersect(seq *sim.Sequence, lo, hi int) (Assignment, error) {
	if lo < 0 || hi >= seq.Len() || lo > hi {
		return nil, fmt.Errorf("threeweight: window [%d,%d] outside sequence of length %d", lo, hi, seq.Len())
	}
	a := make(Assignment, seq.NumInputs)
	for i := 0; i < seq.NumInputs; i++ {
		all0, all1 := true, true
		for u := lo; u <= hi; u++ {
			switch seq.At(u, i) {
			case logic.Zero:
				all1 = false
			case logic.One:
				all0 = false
			default:
				all0, all1 = false, false
			}
		}
		switch {
		case all0:
			a[i] = W0
		case all1:
			a[i] = W1
		default:
			a[i] = WHalf
		}
	}
	return a, nil
}

// Derive builds up to maxAssignments weight assignments from a deterministic
// sequence and the detection times of its faults, windowing around the
// largest detection times first (hard faults), with the given window width.
func Derive(seq *sim.Sequence, detTimes []int, window, maxAssignments int) ([]Assignment, error) {
	if window < 1 {
		return nil, fmt.Errorf("threeweight: window must be positive")
	}
	uniq := map[int]bool{}
	for _, u := range detTimes {
		if u >= 0 {
			uniq[u] = true
		}
	}
	times := make([]int, 0, len(uniq))
	for u := range uniq {
		times = append(times, u)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(times)))
	var out []Assignment
	seen := map[string]bool{}
	for _, u := range times {
		if len(out) >= maxAssignments {
			break
		}
		lo := u - window + 1
		if lo < 0 {
			lo = 0
		}
		a, err := Intersect(seq, lo, u)
		if err != nil {
			return nil, err
		}
		if !seen[a.String()] {
			seen[a.String()] = true
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("threeweight: no assignments derived")
	}
	return out, nil
}

// GenSequence produces lg weighted pseudo-random vectors for the assignment,
// drawing 0.5-weighted bits from the LFSR.
func GenSequence(a Assignment, lg int, src *lfsr.LFSR) *sim.Sequence {
	seq := sim.NewSequence(len(a))
	vec := make([]logic.V, len(a))
	for u := 0; u < lg; u++ {
		for i, w := range a {
			switch w {
			case W0:
				vec[i] = logic.Zero
			case W1:
				vec[i] = logic.One
			default:
				vec[i] = logic.FromBit(src.Step())
			}
		}
		seq.Append(vec)
	}
	return seq
}

// Result reports the baseline's coverage of a target fault list.
type Result struct {
	// Assignments are the derived weight assignments.
	Assignments []Assignment
	// Detected[i] reports detection of target fault i by any assignment.
	Detected []bool
	// NumDetected counts detections.
	NumDetected int
	// PerAssignment[k] is the number of new faults detected by assignment k.
	PerAssignment []int
}

// Coverage returns the detected fraction of the targets.
func (r *Result) Coverage(total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(r.NumDetected) / float64(total)
}

// Evaluate runs every assignment for lg pseudo-random patterns against the
// target faults (with fault dropping across assignments) and reports the
// achieved coverage.
func Evaluate(c *circuit.Circuit, assignments []Assignment, targets []fault.Fault,
	lg int, init logic.V, seed uint64) (*Result, error) {
	width := 16
	src, err := lfsr.New(width, seed)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Assignments:   assignments,
		Detected:      make([]bool, len(targets)),
		PerAssignment: make([]int, len(assignments)),
	}
	s := fsim.New(c)
	for k, a := range assignments {
		fl, idx := fault.Filter(targets, func(i int) bool { return !res.Detected[i] })
		if len(fl) == 0 {
			break
		}
		seq := GenSequence(a, lg, src)
		out := s.Run(seq, fl, fsim.Options{Init: init})
		for j, i := range idx {
			if out.Detected[j] {
				res.Detected[i] = true
				res.NumDetected++
				res.PerAssignment[k]++
			}
		}
	}
	return res, nil
}
