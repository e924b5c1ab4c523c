// Package difftest is the standing differential oracle of this repository:
// it cross-checks the bit-parallel fault simulator (fsim) — sequential and
// parallel, whole runs and split continuation runs — against the deliberately
// naive one-fault-at-a-time reference simulator (ref) on random circuits
// from the rcg generator, and the fault-free machine against the scalar
// logic simulator (sim). The deterministic tests and the Go-native fuzz
// targets in this package are the safety net under which every future
// simulator optimisation (event-driven evaluation, fault dropping, SIMD)
// must land.
//
// The helpers are exported (within internal/) so tests and fuzz targets
// share one stimulus decoder and one comparison routine; everything is
// deterministic in the seeds.
package difftest

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/randutil"
	"repro/internal/ref"
	"repro/internal/sim"
)

// Config selects the differential axes of one triple check.
type Config struct {
	// Init is the common flip-flop initialisation.
	Init logic.V
	// Workers, if > 1, additionally replays the fsim run in parallel and
	// demands a bit-identical outcome.
	Workers int
	// SaveStates compares final flip-flop states (fault-free and per fault).
	SaveStates bool
	// StopTime, if positive, truncates the sequence in both simulators.
	StopTime int
	// SplitContinuation, if set (and StopTime is zero and the sequence has
	// at least 2 vectors), additionally replays the fsim run as a prefix run
	// with SaveStates plus a continuation run via InitialStates/TimeOffset
	// and demands that the merged outcome matches the unsplit oracle.
	SplitContinuation bool
	// ObserveLines turns on internal-line observability recording in the
	// dense-vs-event kernel cross-check (CheckKernels); the ref oracle does
	// not model Lines, so CheckTriple ignores it.
	ObserveLines bool
}

// ConfigFromSeed derives a check configuration from one seed (the decoder
// used by the fuzz targets).
func ConfigFromSeed(seed uint64, seqLen int) Config {
	rng := randutil.New(seed)
	cfg := Config{
		Init:              []logic.V{logic.Zero, logic.One, logic.X}[rng.Intn(3)],
		Workers:           1 + rng.Intn(8),
		SaveStates:        rng.Bool(),
		SplitContinuation: rng.Bool(),
	}
	if rng.Intn(3) == 0 && seqLen > 0 {
		cfg.StopTime = 1 + rng.Intn(seqLen)
	}
	// Drawn last so the older corpus entries keep decoding to the same
	// Init/Workers/SaveStates/SplitContinuation/StopTime they were saved for.
	cfg.ObserveLines = rng.Bool()
	return cfg
}

// RandomStimulus derives a random test sequence for n inputs: 1-32 time
// units, and (half of the time) a sprinkling of X values so the unknown
// paths of both simulators are exercised.
func RandomStimulus(rng *randutil.RNG, n int) *sim.Sequence {
	l := 1 + rng.Intn(32)
	withX := rng.Bool()
	seq := sim.NewSequence(n)
	vec := make([]logic.V, n)
	for u := 0; u < l; u++ {
		for i := range vec {
			if withX && rng.Intn(8) == 0 {
				vec[i] = logic.X
			} else {
				vec[i] = logic.FromBit(rng.Bool())
			}
		}
		seq.Append(vec)
	}
	return seq
}

// SampleFaults derives a fault list from the full collapsed universe: the
// whole list (so multi-group runs and Workers>1 sharding happen), a
// contiguous window, a sparse subset, or a single fault.
func SampleFaults(rng *randutil.RNG, all []fault.Fault) []fault.Fault {
	switch rng.Intn(4) {
	case 0:
		return all
	case 1:
		lo := rng.Intn(len(all))
		hi := lo + 1 + rng.Intn(len(all)-lo)
		return all[lo:hi]
	case 2:
		var out []fault.Fault
		for _, f := range all {
			if rng.Intn(3) == 0 {
				out = append(out, f)
			}
		}
		return out
	default:
		return []fault.Fault{all[rng.Intn(len(all))]}
	}
}

// CompareOutcomes checks that a ref outcome and an fsim outcome are
// bit-identical fault for fault: Detected, DetTime, NumDetected, and (when
// saveStates) every flip-flop of every machine's final state, including the
// fault-free machine in slot 0 of every group.
func CompareOutcomes(c *circuit.Circuit, faults []fault.Fault, r *ref.Outcome, f *fsim.Outcome, saveStates bool) error {
	if len(r.Detected) != len(faults) || len(f.Detected) != len(faults) {
		return fmt.Errorf("outcome sizes %d/%d for %d faults", len(r.Detected), len(f.Detected), len(faults))
	}
	if r.NumDetected != f.NumDetected {
		return fmt.Errorf("NumDetected: ref %d, fsim %d", r.NumDetected, f.NumDetected)
	}
	for i := range faults {
		if r.Detected[i] != f.Detected[i] || r.DetTime[i] != f.DetTime[i] {
			return fmt.Errorf("fault %d (%s): ref detected=%v t=%d, fsim detected=%v t=%d",
				i, faults[i].String(c), r.Detected[i], r.DetTime[i], f.Detected[i], f.DetTime[i])
		}
	}
	if !saveStates {
		return nil
	}
	numGroups := (len(faults) + fsim.GroupSize - 1) / fsim.GroupSize
	if len(f.FinalStates) != numGroups {
		return fmt.Errorf("fsim FinalStates has %d groups, want %d", len(f.FinalStates), numGroups)
	}
	for g := 0; g < numGroups; g++ {
		lo := g * fsim.GroupSize
		hi := min(lo+fsim.GroupSize, len(faults))
		for j, w := range f.FinalStates[g] {
			if got, want := w.Get(0), r.FaultFreeFinal[j]; got != want {
				return fmt.Errorf("group %d ff %d fault-free final state: ref %v, fsim %v", g, j, want, got)
			}
			for k := lo; k < hi; k++ {
				slot := uint(k - lo + 1)
				if got, want := w.Get(slot), r.FinalStates[k][j]; got != want {
					return fmt.Errorf("fault %d (%s) ff %d final state: ref %v, fsim %v",
						k, faults[k].String(c), j, want, got)
				}
			}
		}
	}
	return nil
}

// CheckTriple runs the full differential check for one (circuit, fault set,
// sequence) triple under cfg and returns the first divergence found (nil if
// the oracle, the sequential fsim runs of both kernels, the parallel fsim
// run and the split continuation replay all agree). The kernels are pinned
// explicitly — dense as the ref-locked baseline, event sequential against
// both ref and dense, event for the parallel and continuation replays — so
// the check is invariant to the FSIM_KERNEL environment override.
func CheckTriple(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) error {
	refOut := ref.Run(c, seq, faults, ref.Options{
		Init: cfg.Init, StopTime: cfg.StopTime, SaveStates: cfg.SaveStates,
	})
	seqOut := fsim.Run(c, seq, faults, fsim.Options{
		Init: cfg.Init, StopTime: cfg.StopTime, SaveStates: cfg.SaveStates,
		Kernel: fsim.KernelDense,
	})
	if err := CompareOutcomes(c, faults, refOut, seqOut, cfg.SaveStates); err != nil {
		return fmt.Errorf("ref vs fsim(sequential dense): %w", err)
	}
	evOut := fsim.Run(c, seq, faults, fsim.Options{
		Init: cfg.Init, StopTime: cfg.StopTime, SaveStates: cfg.SaveStates,
		Kernel: fsim.KernelEvent,
	})
	if err := sameFsimOutcome(seqOut, evOut); err != nil {
		return fmt.Errorf("fsim dense vs event: %w", err)
	}
	if err := CompareOutcomes(c, faults, refOut, evOut, cfg.SaveStates); err != nil {
		return fmt.Errorf("ref vs fsim(sequential event): %w", err)
	}
	if cfg.Workers > 1 {
		parOut := fsim.Run(c, seq, faults, fsim.Options{
			Init: cfg.Init, StopTime: cfg.StopTime, SaveStates: cfg.SaveStates,
			Workers: cfg.Workers, Kernel: fsim.KernelEvent,
		})
		if err := sameFsimOutcome(seqOut, parOut); err != nil {
			return fmt.Errorf("fsim sequential vs event Workers=%d: %w", cfg.Workers, err)
		}
		if err := CompareOutcomes(c, faults, refOut, parOut, cfg.SaveStates); err != nil {
			return fmt.Errorf("ref vs fsim(event Workers=%d): %w", cfg.Workers, err)
		}
	}
	if cfg.SplitContinuation && cfg.StopTime == 0 && seq.Len() >= 2 && len(faults) > 0 && fsim.Continuable(faults) {
		if err := checkContinuation(c, seq, faults, cfg, refOut); err != nil {
			return fmt.Errorf("split continuation: %w", err)
		}
	}
	return nil
}

// CheckKernels is the dense-vs-event differential check for one triple: the
// sequential dense outcome is the baseline, and the event kernel must
// reproduce it bit for bit — Detected, DetTime, NumDetected, Lines (when
// cfg.ObserveLines), FinalStates (when cfg.SaveStates) — sequentially, under
// Workers ∈ {1, 4}, across a dense→event run on one reused simulator (the
// warm-start invalidation path), across back-to-back event runs on that
// simulator (the cross-run warm-start path), and through a split
// InitialStates/TimeOffset continuation replay.
func CheckKernels(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) error {
	opts := func(k fsim.Kernel, workers int) fsim.Options {
		return fsim.Options{
			Init: cfg.Init, StopTime: cfg.StopTime, SaveStates: cfg.SaveStates,
			ObserveLines: cfg.ObserveLines, Workers: workers, Kernel: k,
		}
	}
	want := fsim.Run(c, seq, faults, opts(fsim.KernelDense, 1))
	for _, workers := range []int{1, 4} {
		got := fsim.Run(c, seq, faults, opts(fsim.KernelEvent, workers))
		if err := sameFsimOutcome(want, got); err != nil {
			return fmt.Errorf("dense vs event(Workers=%d): %w", workers, err)
		}
	}
	if err := sameFsimOutcome(want, fsim.Run(c, seq, faults, opts(fsim.KernelDense, 4))); err != nil {
		return fmt.Errorf("dense sequential vs dense(Workers=4): %w", err)
	}
	// One reused simulator: a dense run must invalidate the event kernel's
	// value snapshot, and a further event run must warm-start off the
	// previous event run's snapshot — both bit-identically.
	s := fsim.New(c)
	s.Run(seq, faults, opts(fsim.KernelDense, 1))
	for round := 1; round <= 2; round++ {
		got := s.Run(seq, faults, opts(fsim.KernelEvent, 1))
		if err := sameFsimOutcome(want, got); err != nil {
			return fmt.Errorf("reused simulator, event round %d: %w", round, err)
		}
	}
	if cfg.SplitContinuation && cfg.StopTime == 0 && seq.Len() >= 2 && len(faults) > 0 && fsim.Continuable(faults) {
		split := seq.Len() / 2
		pre := fsim.Run(c, seq.Slice(0, split), faults, fsim.Options{
			Init: cfg.Init, SaveStates: true, Kernel: fsim.KernelEvent,
		})
		cont := fsim.Run(c, seq.Slice(split, seq.Len()), faults, fsim.Options{
			Init: cfg.Init, InitialStates: pre.FinalStates, TimeOffset: split,
			Kernel: fsim.KernelEvent,
		})
		for i := range faults {
			det, detTime := pre.Detected[i], pre.DetTime[i]
			if !det && cont.Detected[i] {
				det, detTime = true, cont.DetTime[i]
			}
			if det != want.Detected[i] || (det && detTime != want.DetTime[i]) {
				return fmt.Errorf("event split continuation, fault %d (%s): merged detected=%v t=%d, dense detected=%v t=%d",
					i, faults[i].String(c), det, detTime, want.Detected[i], want.DetTime[i])
			}
		}
	}
	return nil
}

// CheckSlab is the dense-vs-slab differential check for one triple: the
// sequential dense outcome is the baseline and the slab kernel must
// reproduce it bit for bit — Detected, DetTime, NumDetected, Lines (when
// cfg.ObserveLines), FinalStates (when cfg.SaveStates) — across
// Workers ∈ {1, 4, 8} × SlabLanes ∈ {1, 2, 8} (multi-group batches,
// including tail batches narrower than W), under the adaptive W selection
// (SlabLanes=0), across slab runs of different widths on one reused
// simulator (the arena re-stride path) interleaved with an event run (the
// arena-independence path: the slab never touches the event kernel's value
// snapshot), and through a split InitialStates/TimeOffset continuation
// replay with both halves on the slab kernel.
func CheckSlab(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) error {
	opts := func(k fsim.Kernel, workers, lanes int) fsim.Options {
		return fsim.Options{
			Init: cfg.Init, StopTime: cfg.StopTime, SaveStates: cfg.SaveStates,
			ObserveLines: cfg.ObserveLines, Workers: workers, Kernel: k,
			SlabLanes: lanes,
		}
	}
	want := fsim.Run(c, seq, faults, opts(fsim.KernelDense, 1, 0))
	for _, workers := range []int{1, 4, 8} {
		for _, lanes := range []int{1, 2, 8} {
			got := fsim.Run(c, seq, faults, opts(fsim.KernelSlab, workers, lanes))
			if err := sameFsimOutcome(want, got); err != nil {
				return fmt.Errorf("dense vs slab(Workers=%d, W=%d): %w", workers, lanes, err)
			}
		}
	}
	if err := sameFsimOutcome(want, fsim.Run(c, seq, faults, opts(fsim.KernelSlab, 1, 0))); err != nil {
		return fmt.Errorf("dense vs slab(adaptive W): %w", err)
	}
	// One reused simulator: the arena re-strides between widths, an event
	// run in the middle must warm-start unharmed (the slab kernel leaves the
	// event snapshot untouched), and the slab must still match afterwards.
	s := fsim.New(c)
	for round, lanes := range []int{2, 8, 2} {
		got := s.Run(seq, faults, opts(fsim.KernelSlab, 1, lanes))
		if err := sameFsimOutcome(want, got); err != nil {
			return fmt.Errorf("reused simulator, slab round %d (W=%d): %w", round, lanes, err)
		}
	}
	if err := sameFsimOutcome(want, s.Run(seq, faults, opts(fsim.KernelEvent, 1, 0))); err != nil {
		return fmt.Errorf("reused simulator, event after slab: %w", err)
	}
	if err := sameFsimOutcome(want, s.Run(seq, faults, opts(fsim.KernelSlab, 1, 4))); err != nil {
		return fmt.Errorf("reused simulator, slab after event: %w", err)
	}
	if cfg.SplitContinuation && cfg.StopTime == 0 && seq.Len() >= 2 && len(faults) > 0 && fsim.Continuable(faults) {
		split := seq.Len() / 2
		pre := fsim.Run(c, seq.Slice(0, split), faults, fsim.Options{
			Init: cfg.Init, SaveStates: true, Kernel: fsim.KernelSlab, SlabLanes: 2,
		})
		cont := fsim.Run(c, seq.Slice(split, seq.Len()), faults, fsim.Options{
			Init: cfg.Init, InitialStates: pre.FinalStates, TimeOffset: split,
			Kernel: fsim.KernelSlab, SlabLanes: 2,
		})
		for i := range faults {
			det, detTime := pre.Detected[i], pre.DetTime[i]
			if !det && cont.Detected[i] {
				det, detTime = true, cont.DetTime[i]
			}
			if det != want.Detected[i] || (det && detTime != want.DetTime[i]) {
				return fmt.Errorf("slab split continuation, fault %d (%s): merged detected=%v t=%d, dense detected=%v t=%d",
					i, faults[i].String(c), det, detTime, want.Detected[i], want.DetTime[i])
			}
		}
	}
	return nil
}

// CheckTrace demands the detection-provenance trace (fsim.Options.Trace) be
// byte-identical in its canonical form across all three kernels and Workers
// ∈ {1, 4, 8}, and consistent with the (equally bit-identical) outcome: one
// event per detected fault. This is the determinism contract of
// obsv.Trace.CanonicalBytes — worker and kernel are annotations only.
func CheckTrace(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) error {
	run := func(k fsim.Kernel, workers int) (*obsv.Trace, *fsim.Outcome) {
		tr := obsv.NewTrace()
		out := fsim.Run(c, seq, faults, fsim.Options{
			Init: cfg.Init, StopTime: cfg.StopTime,
			Workers: workers, Kernel: k, Trace: tr,
		})
		return tr, out
	}
	refTrace, refOut := run(fsim.KernelDense, 1)
	want := refTrace.CanonicalBytes()
	if n := refTrace.NumDetections(); n != refOut.NumDetected {
		return fmt.Errorf("trace has %d detection events, outcome detected %d", n, refOut.NumDetected)
	}
	for _, k := range []fsim.Kernel{fsim.KernelDense, fsim.KernelEvent, fsim.KernelSlab} {
		for _, workers := range []int{1, 4, 8} {
			if k == fsim.KernelDense && workers == 1 {
				continue // the reference run above
			}
			tr, out := run(k, workers)
			if err := sameFsimOutcome(refOut, out); err != nil {
				return fmt.Errorf("%v(Workers=%d): %w", k, workers, err)
			}
			if got := tr.CanonicalBytes(); !bytes.Equal(want, got) {
				return fmt.Errorf("%v(Workers=%d): canonical trace differs from dense(Workers=1):\nA:\n%s\nB:\n%s",
					k, workers, want, got)
			}
		}
	}
	return nil
}

// sameFsimOutcome demands two fsim outcomes be bit-identical (the
// determinism guarantee of Options.Workers).
func sameFsimOutcome(a, b *fsim.Outcome) error {
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("outcomes differ:\nA: det=%v times=%v n=%d\nB: det=%v times=%v n=%d",
			a.Detected, a.DetTime, a.NumDetected, b.Detected, b.DetTime, b.NumDetected)
	}
	return nil
}

// checkContinuation replays the fsim run split at the sequence midpoint —
// prefix with SaveStates, continuation seeded with InitialStates and
// TimeOffset — and checks the merged detection results against the unsplit
// ref outcome (which by construction saw the whole sequence at once).
func checkContinuation(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config, refOut *ref.Outcome) error {
	split := seq.Len() / 2
	pre := fsim.Run(c, seq.Slice(0, split), faults, fsim.Options{
		Init: cfg.Init, SaveStates: true, Workers: cfg.Workers,
		Kernel: fsim.KernelEvent,
	})
	cont := fsim.Run(c, seq.Slice(split, seq.Len()), faults, fsim.Options{
		Init: cfg.Init, InitialStates: pre.FinalStates, TimeOffset: split,
		Workers: cfg.Workers, Kernel: fsim.KernelEvent,
	})
	for i := range faults {
		det, detTime := pre.Detected[i], pre.DetTime[i]
		if !det && cont.Detected[i] {
			det, detTime = true, cont.DetTime[i]
		}
		if det != refOut.Detected[i] || (det && detTime != refOut.DetTime[i]) {
			return fmt.Errorf("fault %d (%s): merged detected=%v t=%d, ref detected=%v t=%d",
				i, faults[i].String(c), det, detTime, refOut.Detected[i], refOut.DetTime[i])
		}
	}
	return nil
}

// CheckFaultFree drives fsim's fault-free machine (slot 0 of the OutputHook
// primary-output words) and compares it cycle for cycle against the scalar
// logic simulator, also demanding every word be legally encoded (no (1,1)
// dual-rail slots).
func CheckFaultFree(c *circuit.Circuit, seq *sim.Sequence, init logic.V) error {
	want := sim.New(c, init).Run(seq)
	// One fault, so exactly one group invokes the hook once per time unit.
	faults := fault.Universe(c)[:1]
	var mismatch error
	cycles := 0
	fsim.Run(c, seq, faults, fsim.Options{
		Init: init,
		OutputHook: func(lo, hi, u int, po []logic.W) {
			cycles++
			if mismatch != nil {
				return
			}
			for k, w := range po {
				if !w.Valid() {
					mismatch = fmt.Errorf("t=%d output %d: illegal dual-rail word %s", u, k, w)
					return
				}
				if got := w.Get(0); got != want[u][k] {
					mismatch = fmt.Errorf("t=%d output %d: fsim fault-free %v, sim %v", u, k, got, want[u][k])
					return
				}
			}
		},
	})
	if mismatch != nil {
		return mismatch
	}
	if cycles != seq.Len() {
		return fmt.Errorf("hook saw %d cycles for a %d-unit sequence", cycles, seq.Len())
	}
	return nil
}

// Describe renders the repro context of a failing triple: circuit netlist,
// stimulus and configuration — enough to paste into a regression test.
func Describe(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) string {
	return fmt.Sprintf("config: %+v\nfaults: %d\nsequence:\n%s\nnetlist:\n%s",
		cfg, len(faults), seq, benchText(c))
}

func benchText(c *circuit.Circuit) string {
	var sb strings.Builder
	if err := bench.Write(&sb, c); err != nil {
		return fmt.Sprintf("<bench render failed: %v>", err)
	}
	return sb.String()
}
