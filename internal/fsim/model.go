package fsim

import (
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// This file holds the per-kernel injection hooks of the non-stuck-at fault
// models (fault.KindTransition, fault.KindBridge). The semantic contract —
// shared with the independent scalar implementations in internal/ref and
// documented in DESIGN.md ("FaultModel contract") — is:
//
// Transition (slow-to-rise d=1 / slow-to-fall d=0), per site and slot:
// the site's nominal value cur is computed exactly once per time unit (the
// value the node would carry without the transition fault, within that
// slot's machine — which may already diverge from slot 0 through state).
// The slot is forced to ¬d iff the previous time unit's nominal value was
// binary ¬d and cur == d (the launch transition happened and the slow node
// still shows the old value during the capture cycle); prev then advances
// to cur. prev starts at X, so time unit 0 never forces.
//
// Bridge (wired-AND s=0 / wired-OR s=1), per pair (a, b) and slot: the
// cycle's nominal values va, vb at the two stems are resolved first (model
// enumeration guarantees neither stem is combinationally reachable from the
// other, so the nominal driver values are independent of the bridge force),
// then both stems are forced to the ternary wired value op(va, vb) for the
// rest of the cycle — detection, output hooks and the state capture all see
// the forced values.

// transSite is one transition fault injected at a node for the current
// group: a single-slot mask, the transition destination d, the site's
// previous-cycle nominal value and the current cycle's recorded force
// decision (replayed verbatim by the dense kernel's bridge replay pass).
type transSite struct {
	mask     uint64
	d        uint8
	prev     logic.V
	forceNow bool
}

// bridgeSite is one half of a bridge fault at a node: the slot mask, the
// other bridged stem, the wired op and the cycle's resolved wired value.
type bridgeSite struct {
	mask   uint64
	other  circuit.NodeID
	or     bool
	forced logic.V
}

// clearModelInjection resets the transition/bridge tables touched by the
// previous group (no-ops for stuck-at-only groups: every list is empty).
func (s *Simulator) clearModelInjection() {
	for _, n := range s.transNodes {
		s.transIdx[n] = -1
	}
	s.transNodes = s.transNodes[:0]
	s.transSites = s.transSites[:0]
	s.transGates = s.transGates[:0]
	for _, n := range s.bridgeNodes {
		s.bridgeIdx[n] = -1
	}
	s.bridgeNodes = s.bridgeNodes[:0]
	s.bridgeSites = s.bridgeSites[:0]
	s.special, s.hasBridge = false, false
}

// addTransSite registers a transition fault at node id for the current group.
func (s *Simulator) addTransSite(id circuit.NodeID, mask uint64, d uint8) {
	idx := s.transIdx[id]
	if idx < 0 {
		idx = int32(len(s.transSites))
		s.transIdx[id] = idx
		s.transSites = append(s.transSites, nil)
		s.transNodes = append(s.transNodes, id)
		if s.cone.OrderPos[id] >= 0 {
			s.transGates = append(s.transGates, id)
		}
	}
	s.transSites[idx] = append(s.transSites[idx], transSite{mask: mask, d: d, prev: logic.X})
	s.special = true
}

// addBridgeSite registers one stem of a bridge fault at node id (callers add
// both stems with the same mask).
func (s *Simulator) addBridgeSite(id, other circuit.NodeID, mask uint64, or bool) {
	idx := s.bridgeIdx[id]
	if idx < 0 {
		idx = int32(len(s.bridgeSites))
		s.bridgeIdx[id] = idx
		s.bridgeSites = append(s.bridgeSites, nil)
		s.bridgeNodes = append(s.bridgeNodes, id)
	}
	s.bridgeSites[idx] = append(s.bridgeSites[idx], bridgeSite{mask: mask, other: other, or: or})
	s.special = true
	s.hasBridge = true
}

// applyTrans runs the transition hook at node id on the (stem-injected)
// word w. On a first pass each site decides its force from the site's
// previous-cycle nominal value and advances prev exactly once; on the dense
// kernel's bridge replay pass the recorded decision is re-applied without
// touching prev (the site's own slot is unaffected by other slots' bridge
// forces, so the nominal value — and hence the decision — is identical).
func (s *Simulator) applyTrans(id circuit.NodeID, w logic.W, replay bool) logic.W {
	ti := s.transIdx[id]
	if ti < 0 {
		return w
	}
	sites := s.transSites[ti]
	for i := range sites {
		t := &sites[i]
		if !replay {
			cur := slotV(w, t.mask)
			t.forceNow = t.prev == oppV(t.d) && cur == logic.V(t.d)
			t.prev = cur
		}
		if t.forceNow {
			w = w.ForceMask(t.mask, t.d == 0)
		}
	}
	return w
}

// place applies the whole of the current group's injection at node id: stem
// stuck-at masks always, then the model hooks for special groups. It is the
// dense kernel's per-node value sink (the event kernel splits the same
// steps across evalNode and its load loops so its stemFlag fast path
// survives).
func (s *Simulator) place(id circuit.NodeID, w logic.W, replay bool) logic.W {
	w = s.inject(id, w)
	if !s.special {
		return w
	}
	w = s.applyTrans(id, w, replay)
	if replay {
		if bi := s.bridgeIdx[id]; bi >= 0 {
			for _, b := range s.bridgeSites[bi] {
				w = forceV(w, b.mask, b.forced)
			}
		}
	}
	return w
}

// resolveBridges computes each bridge site's wired slot value from the first
// pass's nominal stem values (both halves of a pair resolve to the same
// value; the redundancy keeps the replay pass's per-node lookup flat).
func (s *Simulator) resolveBridges() {
	vals := s.vals
	for i, id := range s.bridgeNodes {
		sites := s.bridgeSites[i]
		for j := range sites {
			b := &sites[j]
			va := slotV(vals[id], b.mask)
			vb := slotV(vals[b.other], b.mask)
			if b.or {
				b.forced = logic.Or(va, vb)
			} else {
				b.forced = logic.And(va, vb)
			}
		}
	}
}

// densePass evaluates one time unit of the dense kernel: load primary inputs
// and present state, then one pass over the levelized netlist, placing every
// value through the group's injection. With replay the pass re-runs with the
// resolved bridge forces applied at both stems of every bridged pair (and
// the transition forces replayed rather than re-decided).
func (s *Simulator) densePass(seq *sim.Sequence, state []logic.W, u int, replay bool) {
	c, vals := s.c, s.vals
	var fan [8]logic.W
	for k, id := range c.Inputs {
		vals[id] = s.place(id, logic.Broadcast(seq.At(u, k)), replay)
	}
	for k, id := range c.DFFs {
		vals[id] = s.place(id, state[k], replay)
	}
	for k := range s.gateID {
		id := s.gateID[k]
		gt := s.gateType[k]
		lo, hiF := s.faninStart[k], s.faninStart[k+1]
		var w logic.W
		// Fast paths for the dominant fault-free 1- and 2-input cases;
		// the general path gathers into the scratch buffer.
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
		vals[id] = s.place(id, w, replay)
	}
}

// slotV extracts the ternary value of the (single-bit) mask's slot.
func slotV(w logic.W, mask uint64) logic.V {
	switch {
	case w.Ones&mask != 0:
		return logic.One
	case w.Zeros&mask != 0:
		return logic.Zero
	default:
		return logic.X
	}
}

// forceV forces the slots of mask to the ternary value v — the ternary
// generalisation of logic.W.ForceMask (an X force clears both rails).
func forceV(w logic.W, mask uint64, v logic.V) logic.W {
	w.Zeros &^= mask
	w.Ones &^= mask
	switch v {
	case logic.Zero:
		w.Zeros |= mask
	case logic.One:
		w.Ones |= mask
	}
	return w
}

// oppV is the binary complement of a 0/1 Stuck byte as a ternary value.
func oppV(d uint8) logic.V {
	if d == 0 {
		return logic.One
	}
	return logic.Zero
}

// groupHasBridge reports whether any fault of the group is a bridge fault
// (such groups take the dense kernel's two-pass path).
func groupHasBridge(faults []fault.Fault) bool {
	for _, f := range faults {
		if f.Kind == fault.KindBridge {
			return true
		}
	}
	return false
}

// Continuable reports whether a run over faults may resume from saved
// states (Options.InitialStates) with the same outcome as the unsplit run:
// true unless the list carries a transition fault, whose launch history
// InitialStates does not carry. Stuck-at and bridge machines are fully
// described by their flip-flop states.
func Continuable(faults []fault.Fault) bool {
	for _, f := range faults {
		if f.Kind == fault.KindTransition {
			return false
		}
	}
	return true
}

// hasModelFaults reports whether the list carries any non-stuck-at fault.
func hasModelFaults(faults []fault.Fault) bool {
	for _, f := range faults {
		if f.Kind != fault.KindStuckAt {
			return true
		}
	}
	return false
}
