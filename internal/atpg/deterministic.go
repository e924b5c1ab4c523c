package atpg

import (
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/podem"
	"repro/internal/sim"
)

// deterministicPhase attacks still-undetected faults with bounded sequential
// PODEM searches. Every search continues from the exact good and faulty
// machine states produced by the current sequence (the faulty state comes
// from the bit-parallel simulator's SaveStates), so a found window is simply
// appended. Each success is independently verified by fault simulation
// before it is accepted.
func deterministicPhase(c *circuit.Circuit, s *fsim.Simulator, seq *sim.Sequence,
	remaining []fault.Fault, opts Options) (*sim.Sequence, []fault.Fault) {

	tried := make(map[fault.Fault]bool)
	budget := opts.PodemTargets
	for budget > 0 && len(remaining) > 0 && !ctxDone(opts.Ctx) {
		// End-of-sequence states: good machine via the scalar simulator,
		// faulty machines via a SaveStates pass (remaining faults are
		// undetected by seq, so the pass detects nothing).
		goodSim := sim.New(c, opts.Init)
		goodSim.Run(seq)
		goodState := goodSim.State()
		base := s.Run(seq, remaining, fsim.Options{Init: opts.Init, SaveStates: true, Workers: opts.Workers, Kernel: opts.Kernel, Ctx: opts.Ctx})
		if base.Cancelled {
			break // partial FinalStates are unusable; caller discards the run
		}

		progressed := false
		for i, f := range remaining {
			if tried[f] || budget <= 0 {
				continue
			}
			tried[f] = true
			budget--
			faultyState := extractState(base.FinalStates, i, c.NumDFFs())
			res, err := podem.FindTest(c, f, goodState, faultyState, podem.Options{
				Frames: opts.PodemFrames,
			})
			if err != nil || !res.Found {
				continue
			}
			cand := seq.Clone()
			cand.Concat(res.Seq)
			// Independent verification before acceptance.
			verify := s.Run(cand, []fault.Fault{f}, fsim.Options{Init: opts.Init, Workers: opts.Workers, Kernel: opts.Kernel, Ctx: opts.Ctx})
			if !verify.Detected[0] {
				continue
			}
			// Accept; drop everything the extension detects.
			out := s.Run(cand, remaining, fsim.Options{Init: opts.Init, Workers: opts.Workers, Kernel: opts.Kernel, Ctx: opts.Ctx})
			seq = cand
			remaining = undetectedSubset(remaining, out)
			progressed = true
			break // states changed; recompute them
		}
		if !progressed {
			break
		}
	}
	return seq, remaining
}

// extractState reads fault i's final flip-flop state out of the grouped
// dual-rail words.
func extractState(finalStates [][]logic.W, i, numDFFs int) []logic.V {
	g := i / fsim.GroupSize
	slot := uint(i%fsim.GroupSize) + 1
	out := make([]logic.V, numDFFs)
	for k := 0; k < numDFFs; k++ {
		out[k] = finalStates[g][k].Get(slot)
	}
	return out
}
