package core

import (
	"repro/internal/fault"
	"repro/internal/fsim"
)

// ReverseOrderCompact implements the postprocessing of Section 4.3: the
// weight assignments in omega are fault-simulated in reverse order of
// generation; an assignment is kept only if its sequence detects at least
// one fault not detected by the assignments processed before it (i.e.
// generated after it). The surviving assignments are returned in their
// original relative order.
//
// Each assignment's sequence is r.WindowLen() long, as during generation.
//
// A cancelled r.Options.Ctx stops the pass early; the returned list is then
// incomplete, so callers must check the context before using it.
func ReverseOrderCompact(r *Result) []Assignment {
	lg := r.WindowLen()
	simulator := fsim.New(r.Circuit)
	detected := make([]bool, len(r.TargetFaults))
	remaining := len(r.TargetFaults)
	keep := make([]bool, len(r.Omega))
	for j := len(r.Omega) - 1; j >= 0 && remaining > 0; j-- {
		fl, idx := fault.Filter(r.TargetFaults, func(i int) bool { return !detected[i] })
		out := simulator.Run(r.Omega[j].GenSequence(lg), fl, r.Options.FsimOptions())
		if out.Cancelled {
			break // a partial outcome would prune Ω wrongly; callers check Ctx
		}
		for k, i := range idx {
			if out.Detected[k] {
				detected[i] = true
				remaining--
				keep[j] = true
			}
		}
	}
	var out []Assignment
	for j, k := range keep {
		if k {
			out = append(out, r.Omega[j])
		}
	}
	return out
}

// DetectionSets fault-simulates every assignment's sequence against all
// target faults (no dropping across assignments) and returns, per
// assignment, the bitset of detected target-fault indices. This is the input
// to the observation-point experiment's greedy selection (Section 5).
//
// A cancelled r.Options.Ctx stops at the first cancelled simulation and
// returns only the sets of the assignments before it, so callers must check
// the context before using them.
func DetectionSets(r *Result) []fsim.Bitset {
	lg := r.WindowLen()
	simulator := fsim.New(r.Circuit)
	sets := make([]fsim.Bitset, 0, len(r.Omega))
	for _, a := range r.Omega {
		out := simulator.Run(a.GenSequence(lg), r.TargetFaults, r.Options.FsimOptions())
		if out.Cancelled {
			break
		}
		b := fsim.NewBitset(len(r.TargetFaults))
		for i, d := range out.Detected {
			if d {
				b.Set(i)
			}
		}
		sets = append(sets, b)
	}
	return sets
}
