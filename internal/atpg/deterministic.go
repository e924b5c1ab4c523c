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
		fo := opts.FsimOptions()
		fo.SaveStates = true
		base := s.Run(seq, remaining, fo)
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
			verify := s.Run(cand, []fault.Fault{f}, opts.FsimOptions())
			if !verify.Detected[0] {
				continue
			}
			// Accept; drop everything the extension detects.
			out := s.Run(cand, remaining, opts.FsimOptions())
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

// repackStates gathers the flip-flop states of the faults at positions idx
// of the fault list that produced states (grouped as fsim groups them) into
// fresh groups in idx order: slot j+1 of group g carries the machine of
// idx[g*GroupSize+j], and every other slot carries the fault-free machine of
// slot 0, as in a run started from a broadcast Init.
func repackStates(states [][]logic.W, idx []int) [][]logic.W {
	good := states[0]
	out := make([][]logic.W, (len(idx)+fsim.GroupSize-1)/fsim.GroupSize)
	for g := range out {
		w := make([]logic.W, len(good))
		for k := range w {
			w[k] = logic.Broadcast(good[k].Get(0))
		}
		out[g] = w
	}
	for j, i := range idx {
		src := states[i/fsim.GroupSize]
		from := uint(i%fsim.GroupSize) + 1
		to := uint(j%fsim.GroupSize) + 1
		dst := out[j/fsim.GroupSize]
		for k := range dst {
			dst[k] = dst[k].Set(to, src[k].Get(from))
		}
	}
	return out
}
