package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"time"

	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/sim"
)

// The grade workload's session: sessionWindows weight-assignment windows of
// sessionLG vectors each, every input's subsequence 1 to maxSubLen bits
// long, compacted in a misrWidth-bit MISR by the self-test.
const (
	gradeCircuit   = "s1196"
	sessionWindows = 8
	sessionLG      = 2000
	maxSubLen      = 4
	misrWidth      = 16
	// crossCheckFaults bounds the per-model fault sample re-simulated on
	// the dense kernel after the timed rounds.
	crossCheckFaults = 128
)

// gradeLayers are the per-layer metrics a traced grade run measures.
var gradeLayers = func() []string {
	out := []string{"iscas.load_s", "bist.run_session_s", "bist.aliased", "bist.tainted"}
	var stages []string
	for _, name := range fault.ModelNames() {
		out = append(out, "fault.universe_s."+name)
		stages = append(stages, "grade."+name)
	}
	return append(out, fsimLayers(true, append(stages, "selftest")...)...)
}()

// makeSession draws one weight assignment per window from the seed (each
// input gets a random subsequence) and concatenates their weighted
// sequences into the continuous session the Figure 1 hardware applies.
func makeSession(seed uint64, numInputs int) *sim.Sequence {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	omega := make([]core.Assignment, sessionWindows)
	for w := range omega {
		subs := make([]string, numInputs)
		for i := range subs {
			b := make([]byte, 1+rng.IntN(maxSubLen))
			for k := range b {
				b[k] = '0' + byte(rng.IntN(2))
			}
			subs[i] = string(b)
		}
		omega[w] = core.Assignment{Subs: subs}
	}
	return core.ConcatSequence(omega, sessionLG)
}

// gradeInput is the grade workload's set-up: the circuit, each model's
// collapsed fault universe and the seeded session.
type gradeInput struct {
	c         *circuit.Circuit
	faults    map[string][]fault.Fault
	session   *sim.Sequence
	loadS     float64
	universeS map[string]float64
}

func gradeSetup(seed uint64) (*gradeInput, error) {
	in := &gradeInput{faults: map[string][]fault.Fault{}, universeS: map[string]float64{}}
	t0 := time.Now()
	c, err := iscas.Load(gradeCircuit)
	if err != nil {
		return nil, err
	}
	in.c = c
	in.loadS = time.Since(t0).Seconds()
	for _, name := range fault.ModelNames() {
		m, err := fault.ModelByName(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		in.faults[name] = fault.CollapsedUniverseFor(c, m)
		in.universeS[name] = time.Since(t0).Seconds()
	}
	in.session = makeSession(seed, c.NumInputs())
	return in, nil
}

// metricModel spells a model name the way end-to-end metric names do.
func metricModel(name string) string { return strings.ReplaceAll(name, "-", "_") }

func runGrade(o options) (*report, error) {
	rep := newReport()
	setup := func() (*gradeInput, error) { return gradeSetup(o.seed) }
	in, err := timeSetup(rep, setup, nil)
	if err != nil {
		return nil, err
	}
	init := expt.InitFor(gradeCircuit)
	universe := map[string]int{}
	for name, fs := range in.faults {
		universe[name] = len(fs)
	}
	rep.op("grade universe pins", nil, checkPin("fault universe sizes", universe, pins.Grade.Universe))

	var first *gradePin
	var last map[string]*fsim.Outcome
	err = drive(o, rep, func(t *tracer, s *sample) (time.Duration, error) {
		t0 := time.Now()
		got := gradePin{Detected: map[string]int{}}
		outs := map[string]*fsim.Outcome{}
		for _, name := range fault.ModelNames() {
			stage := "grade." + name
			sp := t.do(stage, func() {
				outs[name] = fsim.Run(in.c, in.session, in.faults[name], fsim.Options{Init: init, Workers: o.workers})
			})
			got.Detected[name] = outs[name].NumDetected
			s.time("grade_"+metricModel(name)+"_s", sp.Dur.Seconds())
			if t != nil {
				s.fsimStage(stage, sp.Ctrs, sp.Dur, true)
			}
		}
		var br *bist.Report
		var err error
		sp := t.do("selftest", func() {
			br, err = bist.RunSession(in.c, in.session, in.faults["stuck-at"], init, misrWidth)
		})
		d := time.Since(t0)
		if !rep.op("selftest", err) {
			return d, err
		}
		s.time("selftest_s", sp.Dur.Seconds())
		if t != nil {
			s.time("bist.run_session_s", sp.Dur.Seconds())
			s.count("bist.aliased", int64(br.Aliased))
			s.count("bist.tainted", int64(br.Tainted))
			s.fsimStage("selftest", sp.Ctrs, sp.Dur, true)
			s.time("iscas.load_s", in.loadS)
			for name, v := range in.universeS {
				s.time("fault.universe_s."+name, v)
			}
		}
		got.Golden = br.GoldenSignature
		got.ByCompare = br.NumByCompare
		got.BySignature = br.NumBySignature
		got.Aliased = br.Aliased
		got.Tainted = br.Tainted

		// The self-test's per-cycle compare runs the stuck-at universe
		// sequentially through the output hook; it must detect exactly
		// what the parallel grading detected.
		var agree error
		if !reflect.DeepEqual(br.ByCompare, outs["stuck-at"].Detected) {
			agree = errors.New("self-test compare detections differ from the stuck-at grading")
		}
		if first == nil {
			first, last = &got, outs
			rep.outputs["session"] = got
			var pinErr error
			if want, ok := gradePinFor(o.seed); ok {
				pinErr = checkPin("grade session", got, want)
			}
			rep.op("grade", nil, agree, pinErr)
			return d, nil
		}
		var diff error
		if !reflect.DeepEqual(got, *first) {
			diff = fmt.Errorf("session outcome %+v differs from the first round's %+v", got, *first)
		}
		rep.op("grade repeat", nil, agree, diff)
		return d, nil
	}, func() error {
		_, err := timeSetup(rep, setup, nil)
		return err
	})
	if err != nil {
		return rep, err
	}
	for _, name := range fault.ModelNames() {
		rep.op("dense cross-check "+name, crossCheck(in, init, in.faults[name], last[name]))
	}
	return rep, nil
}

// crossCheck re-simulates an evenly spaced sample of the faults on the
// dense kernel, one worker, and compares each fault's detection and
// detection time with the graded outcome. It guards seeds whose outcome
// was never pinned.
func crossCheck(in *gradeInput, init logic.V, faults []fault.Fault, out *fsim.Outcome) error {
	step := max(1, len(faults)/crossCheckFaults)
	var sample []fault.Fault
	var idx []int
	for i := 0; i < len(faults); i += step {
		sample = append(sample, faults[i])
		idx = append(idx, i)
	}
	ref := fsim.Run(in.c, in.session, sample, fsim.Options{Init: init, Kernel: fsim.KernelDense})
	for k, i := range idx {
		if ref.Detected[k] != out.Detected[i] || ref.DetTime[k] != out.DetTime[i] {
			return fmt.Errorf("fault %d: dense kernel detects=%v at %d, graded detects=%v at %d",
				i, ref.Detected[k], ref.DetTime[k], out.Detected[i], out.DetTime[i])
		}
	}
	return nil
}
