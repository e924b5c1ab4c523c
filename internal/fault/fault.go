// Package fault defines the fault models on gate-level netlists. The default
// model is the single stuck-at fault: stem faults on every node output and
// branch faults on every gate (and flip-flop) input pin whose driving line
// has fanout greater than one, with standard structural equivalence
// collapsing. Launch-on-capture transition faults and 2-node AND/OR bridging
// faults are available behind the Model interface (see model.go).
package fault

import (
	"fmt"

	"repro/internal/circuit"
)

// Fault kinds. The zero value is the single stuck-at fault, so every
// pre-existing Fault literal, map key and wire encoding keeps its meaning.
const (
	// KindStuckAt is a single stuck-at fault (stem or fanout branch).
	KindStuckAt uint8 = iota
	// KindTransition is a launch-on-capture transition fault on a stem
	// (Pin == -1 always). Stuck is the transition's destination value:
	// Stuck == 1 is slow-to-rise (a 0→1 transition holds the old 0 for one
	// cycle), Stuck == 0 is slow-to-fall.
	KindTransition
	// KindBridge is a 2-node bridging fault between the stems Node and Node2
	// (canonical order Node < Node2, Pin == -1 always). Stuck selects the
	// resolution function: Stuck == 0 is wired-AND, Stuck == 1 is wired-OR.
	KindBridge
)

// Fault is a single fault under one of the supported models; Kind selects
// the model (the zero value is stuck-at).
//
// For stuck-at faults, Pin == -1 places the fault on the output stem of
// Node and Pin >= 0 on the Pin-th fanin branch of Node (only meaningful when
// that fanin's driver has fanout > 1; branch faults on fanout-free lines are
// identical to the driver's stem fault and are not enumerated). Transition
// and bridge faults are stem-only (Pin == -1); bridge faults carry the
// second bridged stem in Node2.
type Fault struct {
	Node  circuit.NodeID
	Pin   int
	Stuck uint8          // 0 or 1
	Kind  uint8          // KindStuckAt (zero), KindTransition or KindBridge
	Node2 circuit.NodeID // second stem of a bridge fault; 0 otherwise
}

// String renders the fault using node names, e.g. "G11 s-a-0",
// "G8.in1(G6) s-a-1", "G11 slow-rise" or "G6~G11 bridge-OR".
func (f Fault) String(c *circuit.Circuit) string {
	n := &c.Nodes[f.Node]
	switch f.Kind {
	case KindTransition:
		if f.Stuck == 1 {
			return n.Name + " slow-rise"
		}
		return n.Name + " slow-fall"
	case KindBridge:
		op := "AND"
		if f.Stuck == 1 {
			op = "OR"
		}
		return fmt.Sprintf("%s~%s bridge-%s", n.Name, c.Nodes[f.Node2].Name, op)
	}
	if f.Pin < 0 {
		return fmt.Sprintf("%s s-a-%d", n.Name, f.Stuck)
	}
	return fmt.Sprintf("%s.in%d(%s) s-a-%d", n.Name, f.Pin, c.Nodes[n.Fanins[f.Pin]].Name, f.Stuck)
}

// Universe enumerates the full (uncollapsed) stuck-at fault list of c in a
// deterministic order: for every node both stem faults, then for every node
// with multi-fanout drivers both branch faults per such pin.
func Universe(c *circuit.Circuit) []Fault {
	var out []Fault
	for id := range c.Nodes {
		out = append(out,
			Fault{Node: circuit.NodeID(id), Pin: -1, Stuck: 0},
			Fault{Node: circuit.NodeID(id), Pin: -1, Stuck: 1})
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		for pin, f := range n.Fanins {
			if len(c.Nodes[f].Fanouts) > 1 {
				out = append(out,
					Fault{Node: circuit.NodeID(id), Pin: pin, Stuck: 0},
					Fault{Node: circuit.NodeID(id), Pin: pin, Stuck: 1})
			}
		}
	}
	return out
}

// Collapse returns the equivalence-collapsed representatives of faults
// (which must be the Universe order or a subset of it), using the classic
// structural rules:
//
//	AND : any input s-a-0 ≡ output s-a-0      NAND: any input s-a-0 ≡ output s-a-1
//	OR  : any input s-a-1 ≡ output s-a-1      NOR : any input s-a-1 ≡ output s-a-0
//	BUF/DFF: input s-a-v ≡ output s-a-v       NOT : input s-a-v ≡ output s-a-¬v
//
// "Input s-a-v" means the branch fault on that pin when the driver has
// fanout > 1, and the driver's stem fault otherwise.
func Collapse(c *circuit.Circuit, faults []Fault) []Fault {
	index := make(map[Fault]int, len(faults))
	for i, f := range faults {
		index[f] = i
	}
	parent := make([]int, len(faults))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Keep the smaller index as representative so output order is stable.
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	// inputFault resolves "fault v on pin `pin` of node id" to the actual
	// fault in the universe (branch fault or driver stem fault).
	inputFault := func(id circuit.NodeID, pin int, v uint8) (int, bool) {
		drv := c.Nodes[id].Fanins[pin]
		var f Fault
		if len(c.Nodes[drv].Fanouts) > 1 {
			f = Fault{Node: id, Pin: pin, Stuck: v}
		} else {
			f = Fault{Node: drv, Pin: -1, Stuck: v}
		}
		i, ok := index[f]
		return i, ok
	}
	outFault := func(id circuit.NodeID, v uint8) (int, bool) {
		i, ok := index[Fault{Node: id, Pin: -1, Stuck: v}]
		return i, ok
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		nid := circuit.NodeID(id)
		var ctrl, outv uint8
		switch n.Type {
		case circuit.And:
			ctrl, outv = 0, 0
		case circuit.Nand:
			ctrl, outv = 0, 1
		case circuit.Or:
			ctrl, outv = 1, 1
		case circuit.Nor:
			ctrl, outv = 1, 0
		case circuit.Buf, circuit.DFF:
			for v := uint8(0); v <= 1; v++ {
				if a, ok := inputFault(nid, 0, v); ok {
					if b, ok := outFault(nid, v); ok {
						union(a, b)
					}
				}
			}
			continue
		case circuit.Not:
			for v := uint8(0); v <= 1; v++ {
				if a, ok := inputFault(nid, 0, v); ok {
					if b, ok := outFault(nid, 1-v); ok {
						union(a, b)
					}
				}
			}
			continue
		default:
			continue // Input, Xor, Xnor: no structural equivalences
		}
		ob, okOut := outFault(nid, outv)
		if !okOut {
			continue
		}
		for pin := range n.Fanins {
			if a, ok := inputFault(nid, pin, ctrl); ok {
				union(a, ob)
			}
		}
	}
	var reps []Fault
	for i := range faults {
		if find(i) == i {
			reps = append(reps, faults[i])
		}
	}
	return reps
}

// CollapsedUniverse is shorthand for Collapse(c, Universe(c)).
func CollapsedUniverse(c *circuit.Circuit) []Fault {
	return Collapse(c, Universe(c))
}

// Filter returns the faults whose index passes keep, in order, together with
// those indices (idx[k] is the position of kept[k] in faults). Stages that
// re-simulate only the still-undetected targets use idx to map each run's
// outcome back onto the full target list.
func Filter(faults []Fault, keep func(i int) bool) (kept []Fault, idx []int) {
	for i, f := range faults {
		if keep(i) {
			kept = append(kept, f)
			idx = append(idx, i)
		}
	}
	return kept, idx
}
