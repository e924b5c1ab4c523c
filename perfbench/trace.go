package main

import (
	"time"

	"repro/internal/telemetry"
)

// span is one benchmark-side span: a call into a layer's public function,
// with its wall time and the process-wide telemetry counter deltas it saw.
type span struct {
	Name  string
	Start time.Duration // since the tracer started
	Dur   time.Duration
	Ctrs  telemetry.Snapshot
}

// tracer keeps the spans of a traced round in memory. A nil tracer only
// times the call, which is how untraced rounds run the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do calls f inside a span named name.
func (t *tracer) do(name string, f func()) span {
	if t == nil {
		t0 := time.Now()
		f()
		return span{Name: name, Dur: time.Since(t0)}
	}
	before := telemetry.Counters()
	t0 := time.Now()
	f()
	sp := span{Name: name, Start: t0.Sub(t.t0), Dur: time.Since(t0), Ctrs: telemetry.Counters().Sub(before)}
	t.spans = append(t.spans, sp)
	return sp
}

// fsimStage records the fault-simulation counters of one pipeline stage
// under per-layer names suffixed with the stage; withRunTime also records
// the stage's wall time as fsim.run_s (for stages that are one fsim call).
func (s *sample) fsimStage(stage string, c telemetry.Snapshot, d time.Duration, withRunTime bool) {
	// Gates evaluated plus gates an event kernel skipped: the same for
	// every kernel.
	evals := c.Get(telemetry.CtrGateEvals) + c.Get(telemetry.CtrGatesSkipped)
	s.count("fsim.effective_evals."+stage, evals)
	s.count("fsim.vectors."+stage, c.Get(telemetry.CtrVectors))
	s.count("fsim.group_passes."+stage, c.Get(telemetry.CtrGroupPasses))
	s.count("fsim.faults_dropped."+stage, c.Get(telemetry.CtrFaultsDropped))
	s.count("fsim.slab_passes."+stage, c.Get(telemetry.CtrSlabPasses))
	// The event kernel's sweep fallback keeps per-worker hysteresis, so
	// with several workers the count depends on which worker got which
	// group: it is reported but not held to repeat.
	s.metrics["fsim.sweep_fallbacks."+stage] = float64(c.Get(telemetry.CtrSweepFallbacks))
	if d > 0 {
		s.rate("fsim.evals_per_s."+stage, float64(evals)/d.Seconds())
	}
	if withRunTime {
		s.time("fsim.run_s."+stage, d.Seconds())
	}
}
