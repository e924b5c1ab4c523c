package fsim

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Kernel selects the gate-evaluation strategy of a run.
type Kernel uint8

const (
	// KernelAuto resolves to the kernel named by the FSIM_KERNEL environment
	// variable ("event", "dense" or "slab"). When that is unset or
	// unparsable, Simulator.Run picks the kernel per run from the run's own
	// inputs and worker count: slab for a stuck-at-only fault list whose
	// slab lane width is at least 2, event for everything else (see
	// runKernel). It is the zero
	// value, so callers that leave Options.Kernel alone get that per-run
	// choice (and CI can steer the whole test suite through any one kernel
	// without touching a call site).
	KernelAuto Kernel = iota
	// KernelEvent is the event-driven kernel: per time unit only the gates
	// reachable from changed lines are re-evaluated (see runGroupEvent).
	KernelEvent
	// KernelDense is the original kernel: every gate of the levelized
	// netlist is evaluated on every time unit. It is the reference the
	// event kernel is differentially locked against.
	KernelDense
	// KernelSlab is the multi-group slab kernel: up to Options.SlabLanes
	// fault groups are simulated per pass, with per-gate state held in a
	// contiguous gate-major slab so one levelized walk advances
	// lanes×64 machines from hot cache lines (see slab.go). Like the event
	// kernel it is bit-identical to dense by construction.
	KernelSlab
)

// String returns "auto", "event", "dense" or "slab".
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelEvent:
		return "event"
	case KernelDense:
		return "dense"
	case KernelSlab:
		return "slab"
	default:
		return fmt.Sprintf("Kernel(%d)", uint8(k))
	}
}

// ParseKernel maps a CLI/env spelling to a Kernel ("" and "auto" mean
// KernelAuto).
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return KernelAuto, nil
	case "event":
		return KernelEvent, nil
	case "dense":
		return KernelDense, nil
	case "slab":
		return KernelSlab, nil
	default:
		return KernelAuto, fmt.Errorf("fsim: unknown kernel %q (want event, dense or slab)", s)
	}
}

// Resolve applies the FSIM_KERNEL environment variable to KernelAuto. An
// explicit kernel is returned unchanged; KernelAuto becomes the kernel the
// variable names, or stays KernelAuto when it is unset or unparsable (the
// concrete kernel is then chosen per run by Simulator.Run, and recorded by
// Trace.Begin).
func (k Kernel) Resolve() Kernel {
	if k != KernelAuto {
		return k
	}
	if env, err := ParseKernel(os.Getenv("FSIM_KERNEL")); err == nil {
		return env
	}
	return KernelAuto
}

// eventState is the per-scratch-simulator mutable state of the event kernel.
// Each worker of a parallel run owns one (the static Cone is shared
// read-only), so worklists never cross goroutines.
type eventState struct {
	// buckets[L] holds the gates scheduled for re-evaluation at level L of
	// the current time unit. Processing is level-ascending and every event a
	// gate emits targets a strictly higher level, so one sweep reaches the
	// fixed point.
	buckets [][]circuit.NodeID
	// queued[id] == epoch marks id as already scheduled this time unit.
	queued []uint32
	epoch  uint32

	// inCone[id] == coneEpoch marks id as inside the current group's union
	// fault cone (the fanout cones of its injected fault sites).
	inCone    []uint32
	coneEpoch uint32
	coneStack []circuit.NodeID
	// poList is the subset of Circuit.Outputs inside the union cone — the
	// only outputs a faulty machine of this group can ever disturb, and
	// therefore the only ones the detection scan must visit. poIdx holds
	// each entry's index in Circuit.Outputs, so traced detections report
	// the same primary-output index as the dense kernel's full scan.
	poMask Bitset
	poList []circuit.NodeID
	poIdx  []int32

	// changed collects the nodes whose value changed this time unit (only
	// maintained when Options.ObserveLines needs the per-node diff scan).
	changed []circuit.NodeID

	// prevSites are the injected gate sites of the last event-kernel group
	// run on this simulator; ready reports that vals is a consistent
	// snapshot with respect to that injection (every gate value equals its
	// evaluation from its fanin values), which is what allows the next
	// group to seed a worklist instead of re-evaluating the whole netlist.
	prevSites []circuit.NodeID
	ready     bool

	// sweep tells the next time unit to run one flat levelized pass instead
	// of draining the worklist. It is the adaptive fallback for
	// high-activity phases: when almost every word changes every cycle
	// (dense fault packing makes word-level activity the union of 64
	// machines' activity), queue bookkeeping only adds overhead, so the
	// kernel drops to a dense-shaped sweep and re-arms the queue once the
	// measured per-cycle activity falls again (see the hysteresis
	// thresholds at the call sites in runGroupEvent). Only set for
	// circuits with at least sweepMinGates gates. sweepAge counts sweep
	// cycles so that only every eighth one pays for the activity
	// measurement (the others run the bare dense-shaped loop).
	sweep    bool
	sweepAge uint32

	// per-group telemetry, flushed into the caller's counterBatch
	scheduled int64
	coneHits  int64
}

// sweepMinGates disables the adaptive sweep fallback on tiny circuits,
// where a full pass costs next to nothing and the queue's skip ratio is the
// quantity of interest (the hysteresis would otherwise flip a 10-gate
// circuit into sweep mode on any busy cycle).
const sweepMinGates = 64

func newEventState(nodes, levels, outputs int) *eventState {
	return &eventState{
		buckets: make([][]circuit.NodeID, levels),
		queued:  make([]uint32, nodes),
		inCone:  make([]uint32, nodes),
		poMask:  NewBitset(outputs),
	}
}

// invalidateEvent marks the value snapshot as unusable for warm seeding (the
// dense kernel calls this: it rebuilds injection without tracking sites).
func (s *Simulator) invalidateEvent() {
	if s.ev != nil {
		s.ev.ready = false
	}
}

// skipFault reports whether the event kernel may leave this fault entirely
// uninjected without changing any observable outcome: the fault site reaches
// no primary output through any sequential path (never detectable, never
// visible in an output word), internal lines are not being observed, and
// either final states are not being saved or the effect cannot reach state.
// The skipped slot then mirrors the fault-free machine exactly — which is
// also what the dense kernel computes for it, bit for bit.
func (s *Simulator) skipFault(f fault.Fault, opts Options) bool {
	cn := s.cone
	if opts.ObserveLines || cn.Detectable[f.Node] {
		return false
	}
	if !opts.SaveStates {
		return true
	}
	if cn.FeedsState[f.Node] {
		return false
	}
	// A D-pin fault is forced into the saved state directly at the clock
	// edge, regardless of what its host flip-flop reaches.
	if s.c.Nodes[f.Node].Type == circuit.DFF && f.Pin >= 0 {
		return false
	}
	return true
}

// buildInjectionEvent rebuilds the per-group injection tables for the event
// kernel, tracking the touched nodes: stemNodes for targeted clearing by the
// next group, gateSites (gates whose evaluation depends on this group's
// injection) for worklist seeding, and coneSites (every injected site) as
// the roots of the union cone.
func (s *Simulator) buildInjectionEvent(faults []fault.Fault, lo, hi int, opts Options) {
	if s.ev.ready {
		for _, n := range s.stemNodes {
			s.stemMask0[n] = 0
			s.stemMask1[n] = 0
			s.stemFlag[n] = 0
		}
	} else {
		for i := range s.stemMask0 {
			s.stemMask0[i] = 0
			s.stemMask1[i] = 0
			s.stemFlag[i] = 0
		}
	}
	for _, n := range s.pinNodes {
		s.pinIdx[n] = -1
	}
	s.pinNodes = s.pinNodes[:0]
	s.pinForces = s.pinForces[:0]
	s.clearModelInjection()
	s.stemNodes = s.stemNodes[:0]
	s.gateSites = s.gateSites[:0]
	s.coneSites = s.coneSites[:0]
	for k := lo; k < hi; k++ {
		f := faults[k]
		if s.skipFault(f, opts) {
			continue
		}
		slot := uint(k - lo + 1)
		if f.Kind == fault.KindTransition {
			// Transition sites keep their per-cycle prev/force state in the
			// trans tables; addTransSite also collects the gate sites that
			// must be re-decided every time unit (transGates).
			s.addTransSite(f.Node, 1<<slot, f.Stuck)
		} else if f.Pin < 0 {
			if f.Stuck == 0 {
				s.stemMask0[f.Node] |= 1 << slot
			} else {
				s.stemMask1[f.Node] |= 1 << slot
			}
			s.stemFlag[f.Node] = 1
			s.stemNodes = append(s.stemNodes, f.Node)
		} else {
			idx := s.pinIdx[f.Node]
			if idx < 0 {
				idx = int32(len(s.pinForces))
				s.pinIdx[f.Node] = idx
				s.pinForces = append(s.pinForces, nil)
				s.pinNodes = append(s.pinNodes, f.Node)
			}
			s.pinForces[idx] = append(s.pinForces[idx],
				pinForce{pin: f.Pin, mask: 1 << slot, bit: f.Stuck == 1})
		}
		if s.cone.OrderPos[f.Node] >= 0 {
			s.gateSites = append(s.gateSites, f.Node)
		}
		s.coneSites = append(s.coneSites, f.Node)
	}
	// Sorted unique evaluation-order positions of the injected gates, the
	// sweep-segment boundaries (insertion sort: at most 63 entries).
	s.siteGatePos = s.siteGatePos[:0]
insert:
	for _, id := range s.gateSites {
		p := s.cone.OrderPos[id]
		i := len(s.siteGatePos)
		for i > 0 && s.siteGatePos[i-1] >= p {
			if s.siteGatePos[i-1] == p {
				continue insert
			}
			i--
		}
		s.siteGatePos = append(s.siteGatePos, 0)
		copy(s.siteGatePos[i+1:], s.siteGatePos[i:])
		s.siteGatePos[i] = p
	}
}

// markUnionCone walks the fanout closure of the group's injected sites
// (crossing flip-flops: a latched effect re-emerges at the flip-flop output
// in the next time frame) and derives the restricted detection scan list.
func (s *Simulator) markUnionCone() {
	es, cn, c := s.ev, s.cone, s.c
	es.coneEpoch++
	if es.coneEpoch == 0 { // uint32 wrap: all marks are stale
		for i := range es.inCone {
			es.inCone[i] = 0
		}
		es.coneEpoch = 1
	}
	for i := range es.poMask {
		es.poMask[i] = 0
	}
	stack := es.coneStack[:0]
	for _, n := range s.coneSites {
		if es.inCone[n] != es.coneEpoch {
			es.inCone[n] = es.coneEpoch
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p := cn.POIndex[id]; p >= 0 {
			es.poMask.Set(int(p))
		}
		for _, f := range cn.FanoutList[cn.FanoutStart[id]:cn.FanoutStart[id+1]] {
			if es.inCone[f] != es.coneEpoch {
				es.inCone[f] = es.coneEpoch
				stack = append(stack, f)
			}
		}
	}
	es.coneStack = stack[:0]
	es.poList = es.poList[:0]
	es.poIdx = es.poIdx[:0]
	for k, id := range c.Outputs {
		if es.poMask.Get(k) {
			es.poList = append(es.poList, id)
			es.poIdx = append(es.poIdx, int32(k))
		}
	}
}

// schedule enqueues gate id for re-evaluation this time unit (idempotent).
func (s *Simulator) schedule(id circuit.NodeID) {
	es := s.ev
	if es.queued[id] == es.epoch {
		return
	}
	es.queued[id] = es.epoch
	es.buckets[s.cone.LevelOf[id]] = append(es.buckets[s.cone.LevelOf[id]], id)
	es.scheduled++
	if es.inCone[id] == es.coneEpoch {
		es.coneHits++
	}
}

// scheduleFanouts enqueues every gate fanout of node id.
func (s *Simulator) scheduleFanouts(id circuit.NodeID) {
	cn := s.cone
	for _, f := range cn.FanoutList[cn.FanoutStart[id]:cn.FanoutStart[id+1]] {
		if cn.OrderPos[f] >= 0 {
			s.schedule(f)
		}
	}
}

// evalNode evaluates gate id from the current fanin values, applying the
// group's pin forces and output-stem injection (the same computation as one
// iteration of the dense kernel's gate loop).
func (s *Simulator) evalNode(id circuit.NodeID) logic.W {
	k := s.cone.OrderPos[id]
	gt := s.gateType[k]
	lo, hiF := s.faninStart[k], s.faninStart[k+1]
	vals := s.vals
	var w logic.W
	var fan [8]logic.W
	if s.pinIdx[id] < 0 {
		switch hiF - lo {
		case 1:
			w = eval1(gt, vals[s.faninList[lo]])
		case 2:
			w = eval2(gt, vals[s.faninList[lo]], vals[s.faninList[lo+1]])
		default:
			in := fan[:0]
			for _, f := range s.faninList[lo:hiF] {
				in = append(in, vals[f])
			}
			w = evalW(gt, in)
		}
	} else {
		in := fan[:0]
		for _, f := range s.faninList[lo:hiF] {
			in = append(in, vals[f])
		}
		for _, p := range s.pinForces[s.pinIdx[id]] {
			in[p.pin] = in[p.pin].ForceMask(p.mask, p.bit)
		}
		w = evalW(gt, in)
	}
	if s.stemFlag[id] != 0 {
		w = s.inject(id, w)
	}
	if s.special {
		w = s.applyTrans(id, w, false)
	}
	return w
}

// sweepEval evaluates every gate of the levelized netlist once from the
// current values — the sweep-mode cycle of the event kernel. Injection is
// confined to the ≤63 gates of siteGatePos, so the netlist is processed as
// plain segments between those positions (sweepRange: no pinIdx, stem-mask
// or inject work per gate, strictly cheaper than the dense loop) with only
// the boundary gates taking the general evalNode path. With probe it
// additionally counts the gates whose word changed, feeding the sweep-mode
// hysteresis.
func (s *Simulator) sweepEval(probe bool) int {
	chg := 0
	start := 0
	for _, p := range s.siteGatePos {
		chg += s.sweepRange(start, int(p), probe)
		id := s.gateID[p]
		w := s.evalNode(id)
		if probe && w != s.vals[id] {
			chg++
		}
		s.vals[id] = w
		start = int(p) + 1
	}
	return chg + s.sweepRange(start, len(s.gateID), probe)
}

// sweepRange evaluates gates [lo, hi) of the evaluation order, none of which
// carries any injection this group. It lives in its own small function so
// the compiler's register allocation of the hot loop is not burdened by the
// callers' bookkeeping state.
func (s *Simulator) sweepRange(lo, hi int, probe bool) int {
	vals := s.vals
	chg := 0
	var fan [8]logic.W
	for k := lo; k < hi; k++ {
		id := s.gateID[k]
		gt := s.gateType[k]
		flo, fhi := s.faninStart[k], s.faninStart[k+1]
		var w logic.W
		switch fhi - flo {
		case 1:
			w = eval1(gt, vals[s.faninList[flo]])
		case 2:
			w = eval2(gt, vals[s.faninList[flo]], vals[s.faninList[flo+1]])
		default:
			in := fan[:0]
			for _, f := range s.faninList[flo:fhi] {
				in = append(in, vals[f])
			}
			w = evalW(gt, in)
		}
		if probe {
			// Branchless count: a data-dependent branch here would
			// mispredict constantly at the ~50% change rates this mode
			// runs at.
			ov := vals[id]
			d := (w.Zeros ^ ov.Zeros) | (w.Ones ^ ov.Ones)
			chg += int((d | -d) >> 63)
		}
		vals[id] = w
	}
	return chg
}

// runGroupEvent is the event-driven counterpart of runGroupDense. It
// produces bit-identical outcomes by construction:
//
//   - Node values persist across time units (and across groups); a gate's
//     word is a pure function of its fanin words and the group's injection
//     tables, so re-evaluating exactly the gates downstream of a changed
//     word or a changed injection reaches the same fixed point as a full
//     sweep.
//   - Per time unit the worklist is seeded by the primary inputs whose
//     injected vector word changed and the flip-flops whose injected state
//     word changed; at the first time unit of a group it is additionally
//     seeded by the gate fault sites of this group and of the previous
//     group simulated on this scratch simulator (the only places where the
//     injection tables — the second argument of the pure function — differ).
//     When no consistent snapshot exists (first use, or the dense kernel ran
//     in between) the first time unit evaluates every gate, exactly like
//     one dense sweep.
//   - Events are drained through per-level buckets in ascending level
//     order; every fanout of a node has a strictly higher level, so each
//     gate is evaluated at most once per time unit.
//   - When a cycle's measured activity is high the next cycle falls back to
//     one flat levelized pass (shaped exactly like the dense loop, so it
//     costs dense speed instead of dense-plus-queue-overhead) and the queue
//     re-arms once activity drops; a sweep reaches the same fixed point as
//     a drain, so the fallback is invisible in the outcome.
func (s *Simulator) runGroupEvent(seq *sim.Sequence, faults []fault.Fault, lo, hi, stop int, opts Options, out *Outcome, tb *counterBatch) int {
	c := s.c
	cn := s.cone
	if s.ev == nil {
		s.ev = newEventState(len(c.Nodes), cn.NumLevels, len(c.Outputs))
	}
	es := s.ev
	warm := es.ready
	s.buildInjectionEvent(faults, lo, hi, opts)
	s.markUnionCone()
	es.scheduled, es.coneHits = 0, 0
	tg := opts.Trace.Group(lo / GroupSize)
	tg.SetWorker(s.worker)
	if tg != nil && lo == 0 {
		s.actValid = false // activity baseline starts with this pass
	}

	units := 0
	det := 0
	var evals, sweeps int64

	state := s.next
	if opts.InitialStates != nil {
		copy(state, opts.InitialStates[lo/GroupSize])
	} else {
		for i := range state {
			state[i] = logic.Broadcast(opts.Init)
		}
	}
	vals := s.vals

	activeMask := groupMask(hi - lo)
	observe := opts.ObserveLines

	for u := 0; u < stop; u++ {
		units++
		es.epoch++
		if es.epoch == 0 { // uint32 wrap: all marks are stale
			for i := range es.queued {
				es.queued[i] = 0
			}
			es.epoch = 1
		}
		if observe {
			es.changed = es.changed[:0]
		}
		// A sweep cycle bypasses the queue entirely: at u=0 without a
		// consistent snapshot it is mandatory, afterwards it is the
		// adaptive high-activity fallback armed by the previous cycle.
		cold := u == 0 && !warm
		sweep := cold || es.sweep
		// Load primary inputs and present state, scheduling the fanouts of
		// every word that differs from the persisted snapshot.
		for k, id := range c.Inputs {
			w := s.inject(id, logic.Broadcast(seq.At(u, k)))
			if s.special {
				w = s.applyTrans(id, w, false)
			}
			if sweep || w != vals[id] {
				vals[id] = w
				if !sweep {
					s.scheduleFanouts(id)
					if observe {
						es.changed = append(es.changed, id)
					}
				}
			}
		}
		for k, id := range c.DFFs {
			w := s.inject(id, state[k])
			if s.special {
				w = s.applyTrans(id, w, false)
			}
			if sweep || w != vals[id] {
				vals[id] = w
				if !sweep {
					s.scheduleFanouts(id)
					if observe {
						es.changed = append(es.changed, id)
					}
				}
			}
		}
		if sweep {
			// One flat levelized pass (sweepEval), the same fixed point a
			// drain would reach. The hysteresis activity count is measured
			// only on probe cycles — a cold start and every eighth sweep
			// thereafter.
			probe := cold || es.sweepAge&7 == 0
			es.sweepAge++
			sweeps++
			chg := s.sweepEval(probe)
			evals += int64(len(s.gateID))
			if probe {
				// Leave sweep mode once fewer than a quarter of the gates
				// actually changed this cycle.
				es.sweep = len(s.gateID) >= sweepMinGates && chg*4 >= len(s.gateID)
			}
		} else {
			if u == 0 {
				// The injection tables changed between groups: re-evaluate
				// the gates they touch, old and new.
				for _, id := range es.prevSites {
					s.schedule(id)
				}
				for _, id := range s.gateSites {
					s.schedule(id)
				}
			} else if s.special {
				// Transition gate sites must re-decide their force from this
				// cycle's nominal value even when no fanin changed (the
				// launch transition lives in the site's own history, not in
				// its inputs), so they are seeded every time unit.
				for _, id := range s.transGates {
					s.schedule(id)
				}
			}
			var cyc int
			for l := 1; l < cn.NumLevels; l++ {
				b := es.buckets[l]
				for i := 0; i < len(b); i++ {
					id := b[i]
					w := s.evalNode(id)
					cyc++
					if w != vals[id] {
						vals[id] = w
						s.scheduleFanouts(id)
						if observe {
							es.changed = append(es.changed, id)
						}
					}
				}
				es.buckets[l] = b[:0]
			}
			evals += int64(cyc)
			// Enter sweep mode once a drain touched more than half the
			// gates: past that point queue bookkeeping costs more than the
			// evaluations it avoids.
			es.sweep = len(s.gateID) >= sweepMinGates && cyc*2 > len(s.gateID)
		}
		if tg != nil && lo == 0 {
			s.traceActivity(tg)
		}
		// Detection, restricted to the primary outputs inside the union
		// fault cone (no other output word can carry a divergent slot).
		// Any output a fault can disturb is in the cone, so the lowest
		// diffing index here is the lowest in the dense kernel's full scan.
		for pi, id := range es.poList {
			d := vals[id].DiffMask() & activeMask
			for ; d != 0; d &= d - 1 {
				slot := trailingZeros(d)
				fi := lo + slot - 1
				out.Detected[fi] = true
				out.DetTime[fi] = u + opts.TimeOffset
				det++
				activeMask &^= 1 << uint(slot)
				if tg != nil {
					tg.Detect(fi, u+opts.TimeOffset, int(es.poIdx[pi]))
				}
			}
		}
		if opts.OutputHook != nil {
			po := s.poScratch[:0]
			for _, id := range c.Outputs {
				po = append(po, vals[id])
			}
			s.poScratch = po
			opts.OutputHook(lo, hi, u, po)
		}
		if observe {
			// At u=0 a node left untouched by the seeded propagation can
			// still carry a divergence inherited consistently from the
			// previous group's snapshot, so the first time unit scans every
			// node, and sweep cycles (whose flat pass maintains no changed
			// list) do the same; after a full scan an unchanged word has an
			// unchanged (already recorded) diff mask and the changed list
			// is exhaustive.
			if u == 0 || sweep {
				for id := range vals {
					d := vals[id].DiffMask()
					for ; d != 0; d &= d - 1 {
						slot := trailingZeros(d)
						if slot == 0 {
							continue
						}
						out.Lines[lo+slot-1].Set(id)
					}
				}
			} else {
				for _, id := range es.changed {
					d := vals[id].DiffMask()
					for ; d != 0; d &= d - 1 {
						slot := trailingZeros(d)
						if slot == 0 {
							continue
						}
						out.Lines[lo+slot-1].Set(int(id))
					}
				}
			}
		}
		if activeMask == 0 && !opts.ObserveLines && opts.OutputHook == nil && !opts.SaveStates {
			break // every fault in the group already detected
		}
		// Clock edge: next state, with DFF D-pin faults applied.
		for k, id := range c.DFFs {
			w := vals[c.Nodes[id].Fanins[0]]
			if idx := s.pinIdx[id]; idx >= 0 {
				for _, p := range s.pinForces[idx] {
					w = w.ForceMask(p.mask, p.bit)
				}
			}
			state[k] = w
		}
	}
	if opts.SaveStates {
		saved := make([]logic.W, len(state))
		copy(saved, state)
		out.FinalStates[lo/GroupSize] = saved
	}
	if units > 0 {
		// vals is now a consistent snapshot under this group's injection.
		es.prevSites = append(es.prevSites[:0], s.gateSites...)
		es.ready = true
	} else {
		// The injection tables were rebuilt but nothing was evaluated; the
		// snapshot still reflects the previous group.
		es.ready = false
	}
	tg.SetVectors(units)
	tb.gateEvals += evals
	tb.vectors += int64(units)
	tb.passes++
	tb.dropped += int64(det)
	tb.events += es.scheduled
	tb.skipped += int64(units)*int64(len(s.gateID)) - evals
	tb.cones += es.coneHits
	tb.sweepFB += sweeps
	return det
}
