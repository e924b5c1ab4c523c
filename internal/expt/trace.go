package expt

import (
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/obsv"
)

// TraceRun re-simulates a completed pipeline run with detection tracing and
// returns its provenance record: the deterministic sequence T against the
// collapsed fault universe, then each compacted weight assignment's window
// (in schedule order) against the targets it was scheduled to mop up. The
// result is the data behind `wbist report` — which assignment detects which
// fault, when, and at which output.
//
// The re-simulation reuses the run's simulation settings
// (r.Core.Options.FsimOptions and WindowLen), so by the simulator's
// determinism guarantee the outcome matches the original run bit for bit
// regardless of worker count or kernel; the trace costs one extra simulation
// of T plus one per compacted assignment. A run whose context is cancelled
// mid-trace returns ctx.Err().
func TraceRun(r *Run) (*obsv.RunTrace, error) {
	c := r.Circuit
	fo := r.Core.Options.FsimOptions()
	rt := &obsv.RunTrace{
		Schema:  obsv.TraceSchema,
		Circuit: r.Name,
		Kernel:  fo.Kernel.Resolve().String(),
		Targets: len(r.Targets),
		TLen:    r.T.Len(),
	}
	if rt.Circuit == "" {
		rt.Circuit = c.Name
	}
	simulator := fsim.New(c)

	// Segment -1: T against the whole collapsed universe of the run's fault
	// model. Event fault indices are universe indices.
	model, err := fault.ModelByName(r.Config.FaultModel)
	if err != nil {
		return nil, err
	}
	universe := fault.CollapsedUniverseFor(c, model)
	rt.TotalFaults = len(universe)
	fo.Trace = obsv.NewTrace()
	out := simulator.Run(r.T, universe, fo)
	if out.Cancelled {
		return nil, fo.Ctx.Err()
	}
	rt.Segments = append(rt.Segments, fo.Trace.Segment(r.T.Len(), len(universe), out.NumDetected))

	// One segment per compacted assignment, in schedule order, against the
	// targets still undetected when it runs — the same fault-dropping walk
	// the generated hardware performs. Windows are sized exactly like the
	// reverse-order phase (r.Core.WindowLen).
	lg := r.Core.WindowLen()
	detected := make([]bool, len(r.Targets))
	for j, a := range r.Compacted {
		fl, idx := fault.Filter(r.Targets, func(i int) bool { return !detected[i] })
		fo.Trace = obsv.NewTrace()
		fo.Trace.Assignment = j
		out := simulator.Run(a.GenSequence(lg), fl, fo)
		if out.Cancelled {
			return nil, fo.Ctx.Err()
		}
		for k, i := range idx {
			detected[i] = out.Detected[k]
		}
		seg := fo.Trace.Segment(lg, len(fl), out.NumDetected)
		// Remap the window's local fault indices to target indices so every
		// assignment segment speaks the same fault space.
		for k := range seg.Events {
			seg.Events[k].Fault = idx[seg.Events[k].Fault]
		}
		rt.Segments = append(rt.Segments, seg)
	}
	return rt, nil
}
