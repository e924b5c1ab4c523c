// Package atpg generates deterministic test sequences for synchronous
// sequential circuits. It substitutes for the STRATEGATE [24] and SEQCOM [25]
// sequences used in the paper (see DESIGN.md): the weighted-BIST procedure
// only needs *a* deterministic sequence T with known per-fault detection
// times, whose coverage becomes the target coverage.
//
// The generator is fault-simulation based:
//
//  1. a long pseudo-random sequence is fault-simulated with fault dropping
//     and truncated after the last useful time unit;
//  2. remaining faults are attacked with weighted-random directed trials
//     appended to the sequence (random per-input bias, several restarts);
//  3. restoration-based static compaction removes blocks of vectors that do
//     not contribute to coverage (the paper's sequences are also statically
//     compacted).
package atpg

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Options tune sequence generation. The zero value selects sensible defaults.
type Options struct {
	// Seed drives all pseudo-random choices.
	Seed uint64
	// Init is the initial flip-flop value (logic.Zero or logic.X).
	Init logic.V
	// RandomLen is the length of the phase-1 random sequence
	// (default max(256, 2×gates), capped at 4096).
	RandomLen int
	// Restarts is the number of directed weighted-random trials per round
	// (default 24).
	Restarts int
	// TrialLen is the length of one directed trial (default 48).
	TrialLen int
	// Rounds bounds the directed phase (default 6).
	Rounds int
	// MaxAccepts bounds the number of directed trials appended to the
	// sequence, keeping its length (and hence simulation cost) bounded
	// (default 10).
	MaxAccepts int
	// CompactionBlocks lists the block sizes tried during static compaction,
	// largest first (default {128, 64, 16}). Block sizes that would split the
	// sequence into more than 48 candidate deletions are skipped to bound the
	// number of re-simulations.
	CompactionBlocks []int
	// NoCompaction disables phase 3.
	NoCompaction bool
	// PodemTargets bounds how many still-undetected faults the deterministic
	// PODEM phase attacks (default 24; 0 keeps the default, use
	// NoDeterministicPhase to disable).
	PodemTargets int
	// PodemFrames is the time-frame window of each PODEM search (default 8).
	PodemFrames int
	// NoDeterministicPhase disables the PODEM phase.
	NoDeterministicPhase bool
	// Model selects the fault model whose collapsed universe the sequence
	// targets (nil = stuck-at). The random and directed phases work for any
	// model; the deterministic PODEM phase reasons about stuck-at activation
	// and propagation only, so it is skipped for other models. Phase-2
	// directed trials continue from saved flip-flop states, which for
	// transition faults loses the launch history at the trial boundary (see
	// fsim.Options.InitialStates) — acceptable for a search heuristic, and
	// the final reported coverage always comes from an unsplit rerun.
	Model fault.Model
	// Workers is the fault-simulation worker count handed to fsim (0 or 1 =
	// sequential). The generated sequence is bit-identical for any value.
	Workers int
	// Kernel selects the fsim gate-evaluation kernel (dense, event-driven or
	// slab; the zero value honors FSIM_KERNEL, else each fsim run picks slab
	// or event from its fault list and worker count, see
	// fsim.Options.Kernel). The generated sequence is bit-identical for
	// every kernel.
	Kernel fsim.Kernel
	// Span, when non-nil, is the parent telemetry span under which the
	// generator records its phases ("atpg" with one child per phase).
	Span *telemetry.Span
	// Ctx, if non-nil, cancels generation: it is checked between phases and
	// between directed trials (and threaded into every fsim run, which stops
	// claiming fault groups). Generate has no error return, so a cancelled
	// run hands back whatever partial sequence it had — callers that care
	// (the pipeline) check ctx.Err() afterwards and discard the result.
	Ctx context.Context
}

func (o *Options) fill(c *circuit.Circuit) {
	if o.RandomLen == 0 {
		o.RandomLen = 2 * c.NumGates()
		if o.RandomLen < 256 {
			o.RandomLen = 256
		}
		if o.RandomLen > 4096 {
			o.RandomLen = 4096
		}
	}
	if o.Restarts == 0 {
		o.Restarts = 24
	}
	if o.TrialLen == 0 {
		o.TrialLen = 48
	}
	if o.Rounds == 0 {
		o.Rounds = 6
	}
	if o.MaxAccepts == 0 {
		o.MaxAccepts = 10
	}
	if len(o.CompactionBlocks) == 0 {
		o.CompactionBlocks = []int{128, 64, 16}
	}
	if o.PodemTargets == 0 {
		o.PodemTargets = 24
	}
	if o.PodemFrames == 0 {
		o.PodemFrames = 8
	}
}

// Result is a generated deterministic test sequence together with its fault
// dictionary.
type Result struct {
	// Seq is the final test sequence T.
	Seq *sim.Sequence
	// Faults is the collapsed fault universe of the circuit.
	Faults []fault.Fault
	// Detected[i] reports whether T detects Faults[i].
	Detected []bool
	// DetTime[i] is the first detection time of Faults[i] (-1 if undetected).
	DetTime []int
	// NumDetected is the count of detected faults.
	NumDetected int
}

// Coverage returns NumDetected / len(Faults).
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	return float64(r.NumDetected) / float64(len(r.Faults))
}

// DetectedFaults returns the detected subset of the fault list, in universe
// order.
func (r *Result) DetectedFaults() []fault.Fault {
	out := make([]fault.Fault, 0, r.NumDetected)
	for i, d := range r.Detected {
		if d {
			out = append(out, r.Faults[i])
		}
	}
	return out
}

// Generate produces a deterministic test sequence for c.
func Generate(c *circuit.Circuit, opts Options) *Result {
	opts.fill(c)
	span := opts.Span.Child("atpg")
	defer span.End()
	rng := randutil.New(opts.Seed)
	model := opts.Model
	if model == nil {
		model = fault.StuckAt{}
	}
	faults := fault.CollapsedUniverseFor(c, model)
	s := fsim.New(c)

	// Phase 1: one long random sequence, truncated after the last detection.
	p1 := span.Child("random")
	seq := sim.RandomSequence(rng, c.NumInputs(), opts.RandomLen)
	out := s.Run(seq, faults, fsim.Options{Init: opts.Init, Workers: opts.Workers, Kernel: opts.Kernel, Ctx: opts.Ctx})
	last := -1
	for i := range faults {
		if out.Detected[i] && out.DetTime[i] > last {
			last = out.DetTime[i]
		}
	}
	if last < 0 {
		// Nothing detected (degenerate circuit); keep a one-vector sequence.
		seq = seq.Slice(0, 1)
	} else {
		seq = seq.Slice(0, last+1)
	}
	p1.End()

	// Phase 2: directed weighted-random trials for the remaining faults.
	// The prefix sequence is simulated once per acceptance with state
	// saving; each trial then only pays for its own vectors, continued from
	// the saved per-group states.
	p2 := span.Child("directed")
	remaining := undetectedSubset(faults, rerun(s, seq, faults, opts))
	accepted := 0
	budget := opts.Rounds * opts.Restarts
	for len(remaining) > 0 && accepted < opts.MaxAccepts && budget > 0 && !ctxDone(opts.Ctx) {
		// The remaining faults are undetected by seq, so this pass detects
		// nothing and exists purely to capture the end-of-prefix states.
		base := s.Run(seq, remaining, fsim.Options{Init: opts.Init, SaveStates: true, Workers: opts.Workers, Kernel: opts.Kernel, Ctx: opts.Ctx})
		if base.Cancelled {
			break // partial FinalStates are unusable; caller discards the run
		}
		improved := false
		for ; budget > 0 && !ctxDone(opts.Ctx); budget-- {
			cand := weightedRandom(rng, c.NumInputs(), opts.TrialLen)
			// TimeOffset keeps the continued run's detection times on the
			// same axis as the full sequence (prefix + trial), should a
			// future consumer compare them with u_det(f).
			o := s.Run(cand, remaining, fsim.Options{
				InitialStates: base.FinalStates,
				TimeOffset:    seq.Len(),
				Workers:       opts.Workers,
				Kernel:        opts.Kernel,
				Ctx:           opts.Ctx,
			})
			if o.Cancelled {
				break // a partial outcome must not decide acceptance
			}
			if o.NumDetected > 0 {
				seq.Concat(cand)
				remaining = undetectedSubset(remaining, o)
				improved = true
				accepted++
				break // re-simulate the prefix with the new tail
			}
		}
		if !improved {
			break
		}
	}
	p2.End()

	// Phase 2.5: deterministic PODEM phase for the faults random search
	// missed. Each search continues from the good/faulty machine states at
	// the end of the current sequence, so found windows are appended. PODEM
	// reasons about stuck-at activation/propagation, so the phase only runs
	// under the stuck-at model.
	_, stuckAt := model.(fault.StuckAt)
	if !opts.NoDeterministicPhase && stuckAt && len(remaining) > 0 && !ctxDone(opts.Ctx) {
		p25 := span.Child("podem")
		seq, remaining = deterministicPhase(c, s, seq, remaining, opts)
		p25.End()
	}

	// Phase 3: restoration-based static compaction.
	if !opts.NoCompaction && !ctxDone(opts.Ctx) {
		p3 := span.Child("compaction")
		seq = compact(s, seq, faults, opts)
		p3.End()
	}

	final := rerun(s, seq, faults, opts)
	return &Result{
		Seq:         seq,
		Faults:      faults,
		Detected:    final.Detected,
		DetTime:     final.DetTime,
		NumDetected: final.NumDetected,
	}
}

func rerun(s *fsim.Simulator, seq *sim.Sequence, faults []fault.Fault, opts Options) *fsim.Outcome {
	return s.Run(seq, faults, fsim.Options{Init: opts.Init, Workers: opts.Workers, Kernel: opts.Kernel, Ctx: opts.Ctx})
}

// ctxDone reports whether a (possibly nil) context has been cancelled.
func ctxDone(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

func undetectedSubset(faults []fault.Fault, out *fsim.Outcome) []fault.Fault {
	var rem []fault.Fault
	for i := range faults {
		if !out.Detected[i] {
			rem = append(rem, faults[i])
		}
	}
	return rem
}

// weightedRandom returns a sequence whose inputs are biased with random
// per-input 1-probabilities drawn from {0.1, 0.25, 0.5, 0.75, 0.9}; holding
// inputs near constant values is what sequential circuits often need to
// traverse state space (the idea behind weighted-random sequential BIST).
func weightedRandom(rng *randutil.RNG, n, l int) *sim.Sequence {
	probs := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	bias := make([]float64, n)
	for i := range bias {
		bias[i] = probs[rng.Intn(len(probs))]
	}
	seq := sim.NewSequence(n)
	vec := make([]logic.V, n)
	for u := 0; u < l; u++ {
		for i := range vec {
			vec[i] = logic.FromBit(rng.Float64() < bias[i])
		}
		seq.Append(vec)
	}
	return seq
}

// compact removes blocks of vectors whose omission does not lose coverage.
// Blocks are tried back to front at each block size so that later deletions
// do not invalidate earlier decisions within a pass.
//
// Stuck-at and bridge targets are checked against block-boundary
// checkpoints (see checkpoints); transition targets, whose launch history a
// continued run does not carry, are re-simulated over the whole candidate.
// Both checks accept exactly the same candidates, so T does not depend on
// which one ran. A cancelled context stops compaction with the sequence as
// it stands; the caller discards the run.
func compact(s *fsim.Simulator, seq *sim.Sequence, faults []fault.Fault, opts Options) *sim.Sequence {
	targets, ok := compactionTargets(s, seq, faults, opts)
	if !ok {
		return seq
	}
	return compactBlocks(s, seq, targets, opts, fsim.Continuable(targets))
}

// compactionTargets returns the faults seq detects: only they need to stay
// detected, so simulating the undetected ones during compaction would be
// wasted effort. ok is false when the run was cancelled.
func compactionTargets(s *fsim.Simulator, seq *sim.Sequence, faults []fault.Fault, opts Options) (targets []fault.Fault, ok bool) {
	base := rerun(s, seq, faults, opts)
	if base.Cancelled {
		return nil, false
	}
	for i := range faults {
		if base.Detected[i] {
			targets = append(targets, faults[i])
		}
	}
	return targets, true
}

// compactBlocks is the block-deletion loop of compact. With checkpointed
// set, each candidate re-simulates only the targets it can lose, from their
// states at the deleted block; otherwise it re-simulates every target over
// the whole candidate (the reference path).
func compactBlocks(s *fsim.Simulator, seq *sim.Sequence, targets []fault.Fault, opts Options, checkpointed bool) *sim.Sequence {
	for _, block := range opts.CompactionBlocks {
		if block <= 0 || seq.Len()/block > 48 {
			continue
		}
		var cp *checkpoints
		if checkpointed {
			if cp = newCheckpoints(s, seq, targets, block, opts); cp == nil {
				return seq // cancelled: partial states are unusable
			}
		}
		for lo := (seq.Len() - 1) / block * block; lo >= 0; lo -= block {
			hi := min(lo+block, seq.Len())
			if hi-lo == seq.Len() {
				continue // never delete everything
			}
			var o *fsim.Outcome
			var want int
			if cp != nil {
				o, want = cp.suffixRun(seq, lo, hi)
			} else {
				o, want = rerun(s, spliced(seq, lo, hi), targets, opts), len(targets)
			}
			if o.Cancelled {
				return seq
			}
			if o.NumDetected == want {
				seq = spliced(seq, lo, hi)
			}
		}
	}
	return seq
}

// checkpoints is one chunked pass of the compaction targets over a
// sequence at one block size: the group states at every candidate block
// boundary and each target's first detection time. A candidate deleting
// [lo,hi) keeps the prefix seq[:lo], so a target first detected before lo
// stays detected, and every other target's machine is exactly its state at
// lo; the check therefore resumes only those targets from lo over seq[hi:].
//
// Candidates are tried back to front, so after an accepted deletion at lo
// every lower boundary's states are unchanged, and so is the set of targets
// first detected at or after any lower boundary: the checkpoints stay valid
// for the rest of the block size.
type checkpoints struct {
	s       *fsim.Simulator
	targets []fault.Fault
	opts    Options
	block   int
	// states[b] holds the targets' group states after seq[:b*block];
	// states[0] is nil (the run starts from Options.Init).
	states [][][]logic.W
	// detAt[i] is targets[i]'s first detection time, or the sequence length
	// when it falls after the last candidate boundary (no candidate can
	// tell those apart).
	detAt []int
}

// newCheckpoints runs the chunked pass, one chunk per block up to the last
// candidate boundary. It returns nil when the run was cancelled.
func newCheckpoints(s *fsim.Simulator, seq *sim.Sequence, targets []fault.Fault, block int, opts Options) *checkpoints {
	last := (seq.Len() - 1) / block
	cp := &checkpoints{
		s: s, targets: targets, opts: opts, block: block,
		states: make([][][]logic.W, last+1),
		detAt:  make([]int, len(targets)),
	}
	for i := range cp.detAt {
		cp.detAt[i] = seq.Len()
	}
	for b := 0; b < last; b++ {
		lo := b * block
		o := s.Run(view(seq, lo, lo+block), targets, fsim.Options{
			Init:          opts.Init,
			InitialStates: cp.states[b],
			SaveStates:    true,
			TimeOffset:    lo,
			Workers:       opts.Workers,
			Kernel:        opts.Kernel,
			Ctx:           opts.Ctx,
		})
		if o.Cancelled {
			return nil
		}
		for i, t := range o.DetTime {
			if t >= 0 && t < cp.detAt[i] {
				cp.detAt[i] = t
			}
		}
		cp.states[b+1] = o.FinalStates
	}
	return cp
}

// suffixRun checks the candidate that deletes seq[lo:hi): it resumes the
// targets first detected at or after lo from their states at lo, repacked
// into fresh groups, over seq[hi:]. It returns the run and the number of
// detections the candidate needs; when no target needs re-simulating, the
// run is an empty outcome that needs none.
func (cp *checkpoints) suffixRun(seq *sim.Sequence, lo, hi int) (*fsim.Outcome, int) {
	var idx []int
	var sub []fault.Fault
	for i, t := range cp.detAt {
		if t >= lo {
			idx = append(idx, i)
			sub = append(sub, cp.targets[i])
		}
	}
	if len(sub) == 0 {
		return &fsim.Outcome{}, 0
	}
	var init [][]logic.W
	if st := cp.states[lo/cp.block]; st != nil {
		init = repackStates(st, idx)
	}
	o := cp.s.Run(view(seq, hi, seq.Len()), sub, fsim.Options{
		Init:          cp.opts.Init,
		InitialStates: init,
		TimeOffset:    lo,
		Workers:       cp.opts.Workers,
		Kernel:        cp.opts.Kernel,
		Ctx:           cp.opts.Ctx,
	})
	return o, len(sub)
}

// view returns seq[lo:hi) sharing seq's vectors; callers only read it.
func view(seq *sim.Sequence, lo, hi int) *sim.Sequence {
	return &sim.Sequence{NumInputs: seq.NumInputs, Vecs: seq.Vecs[lo:hi:hi]}
}

// spliced returns seq without [lo,hi), sharing seq's vectors (no stage
// writes a vector in place).
func spliced(seq *sim.Sequence, lo, hi int) *sim.Sequence {
	vecs := make([][]logic.V, 0, seq.Len()-(hi-lo))
	vecs = append(append(vecs, seq.Vecs[:lo]...), seq.Vecs[hi:]...)
	return &sim.Sequence{NumInputs: seq.NumInputs, Vecs: vecs}
}
