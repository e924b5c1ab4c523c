// Package bist closes the self-test loop: the weighted test session produced
// by the core procedure is applied to the circuit under test and the
// responses are compacted in a MISR, exactly as the hardware of the paper's
// Figure 1 plus a standard response compactor would do. Fault coverage is
// then measured the way silicon measures it — by comparing final signatures
// against the fault-free golden signature — and the loss relative to
// per-cycle output comparison (aliasing, unknown-poisoning) is reported.
package bist

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/misr"
	"repro/internal/sim"
)

// Report is the outcome of a signature-based BIST session.
type Report struct {
	// GoldenSignature is the fault-free signature.
	GoldenSignature uint64
	// SessionLength is the number of test cycles applied.
	SessionLength int
	// ByCompare[i] reports per-cycle output-compare detection of faults[i]
	// (the upper bound a compactor can achieve).
	ByCompare []bool
	// BySignature[i] reports signature-compare detection of faults[i].
	BySignature []bool
	// Aliased counts faults detected by compare whose faulty signature
	// nevertheless equals the golden signature.
	Aliased int
	// Tainted counts faults whose faulty machine produced an unknown output
	// value, making their signature untrustworthy (they are counted as
	// undetected by signature).
	Tainted int
	// NumByCompare and NumBySignature are the detection totals.
	NumByCompare, NumBySignature int
}

// Coverage returns the signature-based coverage.
func (r *Report) Coverage() float64 {
	if len(r.BySignature) == 0 {
		return 1
	}
	return float64(r.NumBySignature) / float64(len(r.BySignature))
}

// RunSession applies the given test session to the circuit, compacting the
// primary outputs into a width-bit MISR per fault-simulation group, and
// returns the signature-based coverage report.
func RunSession(c *circuit.Circuit, session *sim.Sequence, faults []fault.Fault,
	init logic.V, width int) (*Report, error) {
	if session.Len() == 0 {
		return nil, fmt.Errorf("bist: empty session")
	}
	template, err := misr.NewWord(width)
	if err != nil {
		return nil, err
	}
	_ = template

	rep := &Report{
		SessionLength: session.Len(),
		ByCompare:     make([]bool, len(faults)),
		BySignature:   make([]bool, len(faults)),
	}

	// One WordMISR per fault group, created lazily by the output hook and
	// harvested after the run.
	groups := map[int]*misr.WordMISR{}
	var hookErr error
	hook := func(lo, hi, u int, po []logic.W) {
		m := groups[lo]
		if m == nil {
			m, err = misr.NewWord(width)
			if err != nil {
				hookErr = err
				return
			}
			groups[lo] = m
		}
		m.Shift(po)
	}
	// The MISR hook relies on fsim's OutputHook ordering contract (strict
	// group order, one goroutine), which forces sequential execution; a
	// Workers value passed by the caller would be ignored for this run.
	out := fsim.Run(c, session, faults, fsim.Options{Init: init, OutputHook: hook})
	if hookErr != nil {
		return nil, hookErr
	}
	copy(rep.ByCompare, out.Detected)
	rep.NumByCompare = out.NumDetected

	goldenSet := false
	for lo, m := range groups {
		if !goldenSet {
			if sig, ok := m.SlotSignature(0); ok {
				rep.GoldenSignature = sig
				goldenSet = true
			}
		}
		diff := m.DiffMask()
		taint := m.TaintMask()
		hi := lo + fsim.GroupSize
		if hi > len(faults) {
			hi = len(faults)
		}
		for k := lo; k < hi; k++ {
			slot := uint(k - lo + 1)
			bit := uint64(1) << slot
			switch {
			case taint&bit != 0:
				rep.Tainted++
			case diff&bit != 0:
				rep.BySignature[k] = true
				rep.NumBySignature++
			default:
				if rep.ByCompare[k] {
					rep.Aliased++
				}
			}
		}
	}
	return rep, nil
}

// RunWeightedSession builds the continuous test session of a core result
// (every weight assignment window back to back, as the Figure 1 hardware
// applies it) and measures signature-based coverage of the target faults.
func RunWeightedSession(res *core.Result, omega []core.Assignment, width int) (*Report, error) {
	sp := res.Options.Span.Child("bist-session")
	defer sp.End()
	session := core.ConcatSequence(omega, res.WindowLen())
	return RunSession(res.Circuit, session, res.TargetFaults, res.Options.Init, width)
}
