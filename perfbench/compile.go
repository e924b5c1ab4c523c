package main

import (
	"errors"
	"reflect"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/wgen"
)

// compileCircuit is the ROADMAP yardstick circuit. The compile workload's
// input is fixed (circuit, stuck-at, pipeline seed 1), so the workload seed
// changes nothing in it.
const compileCircuit = "s1196"

// compileLayers are the per-layer metrics a traced compile run measures.
var compileLayers = append([]string{
	"iscas.load_s",
	"atpg.generate_s", "atpg.random_s", "atpg.directed_s", "atpg.podem_s", "atpg.compaction_s",
	"podem.backtracks", "atpg.seq_len",
	"core.run_s", "core.candidates_scored", "core.omega", "core.accept_ratio",
	"core.reverse_order_s", "core.keep_ratio", "core.accounting_s",
	"wgen.synthesize_s", "obs.experiment_s",
}, fsimLayers(false, "atpg", "core", "reverse-order", "obs")...)

// compiled is everything a compile round produces that must be
// reproducible: the pipeline's run, its generator and the obs experiment.
type compiled struct {
	run *expt.Run
	gen *wgen.Generator
	obs *obs.Result
}

// compileOutput is the comparable digest of a compile round.
type compileOutput struct {
	Table6    expt.Table6Row
	T         string
	Targets   []fault.Fault
	DetTimes  []int
	Omega     []core.Assignment
	Compacted []core.Assignment
	Gates     int
	DFFs      int
	ObsRows   []obs.Row
}

func (c *compiled) output() compileOutput {
	return compileOutput{
		Table6:    expt.Table6(c.run),
		T:         c.run.T.String(),
		Targets:   c.run.Targets,
		DetTimes:  c.run.DetTimes,
		Omega:     c.run.Core.Omega,
		Compacted: c.run.Compacted,
		Gates:     c.gen.NumGates,
		DFFs:      c.gen.NumDFFs,
		ObsRows:   c.obs.Rows,
	}
}

func runCompile(o options) (*report, error) {
	rep := newReport()
	setup := func() (*circuit.Circuit, error) { return iscas.Load(compileCircuit) }
	c, err := timeSetup(rep, setup, nil)
	if err != nil {
		return nil, err
	}
	init := expt.InitFor(compileCircuit)
	cfg := expt.Config{LG: 2000, Seed: 1, FaultModel: "stuck-at", Workers: o.workers}

	var first *compileOutput
	err = drive(o, rep, func(t *tracer, s *sample) (time.Duration, error) {
		var res *compiled
		var d time.Duration
		var err error
		if t == nil {
			res, d, err = compileRound(c, init, cfg, s)
		} else {
			res, d, err = compileTraced(c, init, cfg, t, s)
			s.time("iscas.load_s", median(rep.setupWalls)) // the set-up is the circuit load
		}
		if !rep.op("compile", err) {
			return d, err
		}
		out := res.output()
		if first == nil {
			first = &out
			rep.outputs["table6"] = out.Table6
			rep.outputs["obs_rows"] = len(out.ObsRows)
			rep.op("compile pins", nil,
				checkPin("compile table6", out.Table6, pins.Compile.Table6),
				checkPin("compile obs rows", len(out.ObsRows), pins.Compile.ObsRows),
				checkPin("compile coverage", out.Table6.Coverage, 1.0))
			return d, nil
		}
		// Every later round, traced ones included, must reproduce the first.
		var diff error
		if !reflect.DeepEqual(out, *first) {
			diff = errors.New("output differs from the first round")
		}
		rep.op("compile repeat", nil, diff)
		return d, nil
	}, func() error {
		_, err := timeSetup(rep, setup, nil)
		return err
	})
	return rep, err
}

// compileRound is the untraced round: the pipeline as a user runs it.
func compileRound(c *circuit.Circuit, init logic.V, cfg expt.Config, s *sample) (*compiled, time.Duration, error) {
	t0 := time.Now()
	r, err := expt.RunPipeline(c, init, cfg)
	if err != nil {
		return nil, time.Since(t0), err
	}
	g, err := expt.SynthesizeGenerator(r)
	if err != nil {
		return nil, time.Since(t0), err
	}
	t1 := time.Now()
	ob := expt.ObsExperiment(r)
	t2 := time.Now()
	s.time("compile_s", t1.Sub(t0).Seconds())
	s.time("obs_s", t2.Sub(t1).Seconds())
	return &compiled{run: r, gen: g, obs: ob}, t2.Sub(t0), nil
}

// compileTraced runs the same pipeline stage by stage, exactly as
// expt.RunPipeline sequences it, with a benchmark-side span around each
// call. The atpg and core layers also record their own sub-phase spans
// under the public Options.Span.
func compileTraced(c *circuit.Circuit, init logic.V, cfg expt.Config, t *tracer, s *sample) (*compiled, time.Duration, error) {
	t0 := time.Now()
	model, err := fault.ModelByName(cfg.FaultModel)
	if err != nil {
		return nil, 0, err
	}
	rec := telemetry.New()
	pipe := rec.StartSpan("pipeline")
	r := &expt.Run{Name: c.Name, Circuit: c, Config: cfg, Init: init}

	var ar *atpg.Result
	spA := t.do("atpg", func() {
		ar = atpg.Generate(c, atpg.Options{
			Seed:                 cfg.Seed + 1,
			Init:                 init,
			Model:                model,
			RandomLen:            cfg.ATPGRandomLen,
			NoCompaction:         cfg.ATPGNoCompaction,
			NoDeterministicPhase: cfg.ATPGNoPodem,
			Workers:              cfg.Workers,
			Kernel:               cfg.Kernel,
			Span:                 pipe,
		})
	})
	r.T = ar.Seq
	r.TotalFaults = len(ar.Faults)
	for i := range ar.Faults {
		if ar.Detected[i] {
			r.Targets = append(r.Targets, ar.Faults[i])
			r.DetTimes = append(r.DetTimes, ar.DetTime[i])
		}
	}

	spC := t.do("core", func() {
		r.Core, err = core.Run(c, r.T, r.Targets, r.DetTimes, core.Options{
			LG:            cfg.LG,
			Init:          init,
			Seed:          cfg.Seed + 2,
			RandomWindows: cfg.RandomWindows,
			Workers:       cfg.Workers,
			Kernel:        cfg.Kernel,
			Span:          pipe,
		})
	})
	if err != nil {
		return nil, time.Since(t0), err
	}
	spR := t.do("reverse-order", func() { r.Compacted = core.ReverseOrderCompact(r.Core) })
	spS := t.do("accounting", func() { r.Stats = core.Accounting(r.Compacted) })
	pipe.End()
	var g *wgen.Generator
	spW := t.do("wgen", func() { g, err = expt.SynthesizeGenerator(r) })
	if err != nil {
		return nil, time.Since(t0), err
	}
	var ob *obs.Result
	spO := t.do("obs", func() { ob = expt.ObsExperiment(r) })
	d := time.Since(t0)

	s.time("atpg.generate_s", spA.Dur.Seconds())
	for _, p := range rec.Phases() {
		switch p.Span {
		case "pipeline/atpg/random", "pipeline/atpg/directed", "pipeline/atpg/podem", "pipeline/atpg/compaction":
			s.time("atpg."+p.Span[len("pipeline/atpg/"):]+"_s", p.Wall().Seconds())
		}
	}
	s.count("podem.backtracks", spA.Ctrs.Get(telemetry.CtrBacktracks))
	s.count("atpg.seq_len", int64(r.T.Len()))
	candidates := spC.Ctrs.Get(telemetry.CtrCandidates)
	s.time("core.run_s", spC.Dur.Seconds())
	s.count("core.candidates_scored", candidates)
	s.count("core.omega", int64(len(r.Core.Omega)))
	if candidates > 0 {
		s.metrics["core.accept_ratio"] = float64(len(r.Core.Omega)) / float64(candidates)
	}
	s.time("core.reverse_order_s", spR.Dur.Seconds())
	if len(r.Core.Omega) > 0 {
		s.metrics["core.keep_ratio"] = float64(len(r.Compacted)) / float64(len(r.Core.Omega))
	}
	s.time("core.accounting_s", spS.Dur.Seconds())
	s.time("wgen.synthesize_s", spW.Dur.Seconds())
	s.time("obs.experiment_s", spO.Dur.Seconds())
	for _, sp := range []span{spA, spC, spR, spO} {
		s.fsimStage(sp.Name, sp.Ctrs, sp.Dur, false)
	}
	return &compiled{run: r, gen: g, obs: ob}, d, nil
}
