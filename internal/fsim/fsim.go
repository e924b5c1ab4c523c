// Package fsim implements a bit-parallel three-valued sequential fault
// simulator. Faults are simulated in groups: slot 0 of every 64-bit dual-rail
// word carries the fault-free machine and slots 1..63 carry up to 63 faulty
// machines, so one pass over the gate list advances 64 machines at once.
//
// A fault is detected at time unit u if some primary output has a binary
// fault-free value and the opposite binary value in the faulty machine
// (logic.W.DiffMask). Optionally the simulator records, for every fault, the
// set of *internal* nodes at which the faulty machine ever differs binarily
// from the fault-free machine; that is the observability information used by
// the observation-point insertion experiment (Section 5 of the paper).
//
// Fault groups are fully independent (each pass carries its own fault-free
// machine in slot 0), so Options.Workers > 1 shards them over a worker pool
// with one scratch simulator per worker and merges the per-group results
// deterministically: the outcome is bit-identical to a sequential run.
package fsim

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// GroupSize is the number of faulty machines per simulation pass.
const GroupSize = 63

// Options control a fault-simulation run.
type Options struct {
	// Init is the initial value of every flip-flop (logic.Zero for circuits
	// with a global reset, logic.X for an unknown power-up state).
	Init logic.V
	// ObserveLines records, per fault, the set of nodes at which the faulty
	// machine differs binarily from the fault-free machine at some time unit.
	ObserveLines bool
	// AbortAfterFirstGroupIfNone stops after the first fault group if that
	// group produced no detection. Combined with an ordering that puts a
	// target fault and a random sample first, this is the paper's Section 4.2
	// simulation-effort reduction.
	AbortAfterFirstGroupIfNone bool
	// StopTime, if positive, truncates the sequence after this many time
	// units.
	StopTime int
	// OutputHook, if non-nil, is invoked once per simulated time unit per
	// fault group with the group's fault range [lo,hi) and the dual-rail
	// primary-output words (slot 0 = fault-free machine, slot k = machine of
	// faults[lo+k-1]). Response compactors (package misr) plug in here.
	// Setting a hook disables the all-detected early exit so every group
	// sees the full sequence.
	//
	// Ordering contract: a hook is always invoked sequentially, in strict
	// group order (group 0's whole sequence first, then group 1's, ...), on
	// the calling goroutine. Setting a hook therefore forces sequential
	// execution: Workers is ignored.
	OutputHook func(lo, hi, u int, po []logic.W)
	// InitialStates, if non-nil, provides the starting flip-flop state of
	// every fault group (index lo/GroupSize), as produced by a previous run
	// with SaveStates over the *same fault list* (grouping must match). It
	// overrides Init and lets a caller continue a simulation where an
	// earlier sequence left off, paying only for the new vectors. Run
	// panics if the group count does not match the fault list or a group's
	// state width does not match the circuit's flip-flop count: a silent
	// mismatch would corrupt the continuation run.
	//
	// Continuation is exact for stuck-at and bridge faults, whose machines
	// are fully described by their flip-flop states. A transition fault's
	// launch history (the site's previous-cycle nominal value) is per-run
	// state that InitialStates does not carry: the continued run restarts
	// it at X, so a launch transition straddling the split point is lost
	// and the outcome may differ from the unsplit run around the boundary.
	// Continuable reports which case a fault list is in.
	InitialStates [][]logic.W
	// SaveStates records each group's final flip-flop state in
	// Outcome.FinalStates (disabling the all-detected early exit so the
	// state is exact).
	SaveStates bool
	// TimeOffset is added to every recorded detection time (undetected
	// faults stay at -1). A caller continuing a run via InitialStates passes
	// the length of the already-applied prefix so Outcome.DetTime stays
	// directly comparable with the detection times u_det(f) of the original,
	// unsplit sequence. StopTime remains relative to the new sequence.
	TimeOffset int
	// Workers is the number of goroutines the independent fault groups are
	// sharded over. 0 or 1 simulates sequentially on the calling goroutine;
	// n > 1 uses min(n, number of groups) workers, each with its own scratch
	// simulator. Results are merged into pre-sized per-group slices, so the
	// outcome is bit-identical to a sequential run regardless of scheduling.
	// OutputHook forces sequential execution (see its ordering contract);
	// AbortAfterFirstGroupIfNone always simulates group 0 alone, before any
	// fan-out, to preserve the Section 4.2 effort reduction.
	Workers int
	// Kernel selects the gate-evaluation strategy. The zero value
	// (KernelAuto) honors the FSIM_KERNEL environment variable; without it,
	// each run picks slab for a stuck-at-only fault list whose slab lane
	// width is at least 2 (two or more groups, more groups than Workers, no
	// OutputHook, a netlist within the L2 budget) and the event kernel
	// otherwise (see runKernel). All kernels produce bit-identical outcomes
	// (the differential suite in internal/difftest enforces this), so the
	// choice only affects speed and telemetry.
	Kernel Kernel
	// SlabLanes is the number of fault groups the slab kernel batches into
	// one multi-group pass (W in the slab layout: W×64 machines per gate
	// visit). 0 picks W adaptively from the netlist size against an L2
	// cache budget; any positive value is used as-is (clamped to the number
	// of groups actually available per batch). Ignored by the dense and
	// event kernels. Like Workers, it never changes the outcome — only how
	// the identical result is computed.
	SlabLanes int
	// Ctx, if non-nil, cancels the run at fault-group granularity: the
	// worker pool (and the sequential loop) checks it before claiming each
	// group, so a cancelled run stops scheduling new passes and returns its
	// workers promptly instead of burning through the remaining groups. A
	// group already in flight finishes its pass — results stay well-formed —
	// and the outcome is marked Cancelled; the skipped groups are counted on
	// the fsim.groups_cancelled telemetry counter. A nil Ctx (the default)
	// never cancels and costs nothing.
	Ctx context.Context
	// Trace, if non-nil, receives the run's detection-provenance stream
	// (see internal/obsv): one event per first detection carrying the fault
	// index, time unit, detecting primary output, fault group, worker and
	// kernel, plus group 0's per-cycle fault-free activity curve and each
	// group's simulated vector count. Events are buffered per group and
	// merged in group order, so the canonical stream is bit-identical for
	// any Workers count and either kernel. A nil Trace costs one nil check
	// per group pass and one per detection — nothing on the per-gate paths.
	Trace *obsv.Trace
}

// Outcome reports the result of a run over a fault list.
type Outcome struct {
	// Detected[i] reports whether faults[i] was detected.
	Detected []bool
	// DetTime[i] is the first time unit at which faults[i] was detected
	// (-1 if undetected).
	DetTime []int
	// NumDetected is the number of detected faults.
	NumDetected int
	// Lines[i] is a bitset over node ids (only when ObserveLines was set):
	// bit n set means the faulty machine for faults[i] differed binarily from
	// the fault-free machine at node n at some time unit.
	Lines []Bitset
	// FinalStates[g] is group g's final flip-flop state (only when
	// SaveStates was set).
	FinalStates [][]logic.W
	// Aborted reports that AbortAfterFirstGroupIfNone fired: the first
	// group detected nothing and at least one further group was skipped. A
	// run whose only group was fully simulated is never marked aborted.
	Aborted bool
	// Cancelled reports that Options.Ctx was cancelled before every fault
	// group had been simulated: Detected/DetTime cover only the groups that
	// ran, so the outcome is a partial result the caller should discard
	// (pipeline stages surface ctx.Err() instead of using it).
	Cancelled bool
}

// Bitset is a fixed-size bitset over node ids.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Simulator runs fault simulations over one circuit. It is cheap to create;
// scratch buffers are reused across runs.
//
// A Simulator is NOT safe for concurrent use by multiple goroutines: every
// run scribbles over the shared scratch buffers. To parallelize, set
// Options.Workers instead — Run then shards the independent fault groups
// over an internal pool of per-worker simulators (reused across runs) and
// merges their results deterministically.
type Simulator struct {
	c    *circuit.Circuit
	vals []logic.W
	next []logic.W

	// pool holds the extra per-worker simulators of parallel runs, grown on
	// demand and reused across runs. They share the receiver's immutable
	// flattened netlist and own only scratch state.
	pool []*Simulator

	// Flattened netlist (hot-loop friendly): for gate k in evaluation order,
	// gateID[k] is its node id, gateType[k] its type, and its fanins are
	// faninList[faninStart[k]:faninStart[k+1]].
	gateID     []circuit.NodeID
	gateType   []circuit.GateType
	faninStart []int32
	faninList  []circuit.NodeID

	// per-group fault injection tables, rebuilt for each group
	stemMask0 []uint64 // per node: slots forced to 0 at the node output
	stemMask1 []uint64
	// pinIdx[node] is -1 when the node has no pin faults in this group,
	// otherwise an index into pinForces. A flat slice keeps the per-gate
	// lookup in the hot loop branch-predictable and map-free.
	pinIdx    []int32
	pinNodes  []circuit.NodeID // nodes with pin faults (for cheap clearing)
	pinForces [][]pinForce
	poScratch []logic.W

	// per-group transition/bridge fault sites (see model.go). special is set
	// when the current group carries any transition or bridge fault, so
	// stuck-at-only groups skip every model hook on the hot paths; hasBridge
	// additionally arms the dense kernel's two-pass cycle.
	transIdx    []int32
	transNodes  []circuit.NodeID
	transSites  [][]transSite
	transGates  []circuit.NodeID // transition sites that are gates (event-kernel per-cycle seeds)
	bridgeIdx   []int32
	bridgeNodes []circuit.NodeID
	bridgeSites [][]bridgeSite
	special     bool
	hasBridge   bool

	// cone is the immutable static data of the event kernel, built once in
	// New and shared (like the flattened netlist) by every pooled worker.
	cone *Cone
	// ev is the event kernel's mutable per-simulator state (worklists,
	// cone marks, value-snapshot bookkeeping), allocated on first use.
	ev *eventState
	// slab is the slab kernel's scratch arena (multi-group value/state/
	// injection slabs, per-lane bookkeeping), allocated on first use and
	// reused across batches and runs. The slab kernel never touches vals or
	// the per-group injection tables above, so an event-kernel value
	// snapshot survives interleaved slab runs.
	slab *slabState
	// event-kernel injection bookkeeping: the stem-fault nodes of the
	// current group (for targeted clearing), the gate fault sites (worklist
	// seeds) and every injected site (union-cone roots). stemFlag[id] != 0
	// mirrors "stemMask0[id]|stemMask1[id] != 0" as a single byte so the
	// event kernel's gate loops touch one dense byte array instead of two
	// word arrays for the (overwhelmingly common) uninjected nodes; it is
	// maintained only by buildInjectionEvent and read only by event-kernel
	// code, so the dense kernel's own injection build cannot desynchronize
	// it (an event run after a dense run starts from ready=false and
	// rebuilds the flags from scratch).
	stemNodes []circuit.NodeID
	gateSites []circuit.NodeID
	coneSites []circuit.NodeID
	stemFlag  []uint8
	// siteGatePos is the sorted, deduplicated list of evaluation-order
	// positions of the injected gates (gateSites). Sweep cycles evaluate
	// the plain segments between those positions with no injection checks
	// at all — only the ≤63 boundary gates take the general path.
	siteGatePos []int32

	// worker is this simulator's index in a parallel run's worker pool
	// (0 for the receiver). It is a trace annotation only and never part
	// of any canonical output.
	worker int
	// Activity-trace scratch (see traceActivity): the packed fault-free
	// slot-0 bits of every node as of the previous traced cycle. actValid
	// is reset at the start of each traced group-0 pass so the first cycle
	// only establishes the baseline.
	actZ, actO []uint64
	actValid   bool
}

type pinForce struct {
	pin  int
	mask uint64
	bit  bool
}

// New returns a simulator for c.
func New(c *circuit.Circuit) *Simulator {
	s := newScratch(c)
	s.gateID = make([]circuit.NodeID, len(c.Order))
	s.gateType = make([]circuit.GateType, len(c.Order))
	s.faninStart = make([]int32, len(c.Order)+1)
	for k, id := range c.Order {
		n := &c.Nodes[id]
		s.gateID[k] = id
		s.gateType[k] = n.Type
		s.faninStart[k+1] = s.faninStart[k] + int32(len(n.Fanins))
		s.faninList = append(s.faninList, n.Fanins...)
	}
	s.cone = BuildCone(c)
	return s
}

// newScratch allocates the mutable per-run state of a simulator for c.
func newScratch(c *circuit.Circuit) *Simulator {
	s := &Simulator{
		c:         c,
		vals:      make([]logic.W, len(c.Nodes)),
		next:      make([]logic.W, len(c.DFFs)),
		stemMask0: make([]uint64, len(c.Nodes)),
		stemMask1: make([]uint64, len(c.Nodes)),
		stemFlag:  make([]uint8, len(c.Nodes)),
		pinIdx:    make([]int32, len(c.Nodes)),
		transIdx:  make([]int32, len(c.Nodes)),
		bridgeIdx: make([]int32, len(c.Nodes)),
	}
	for i := range s.pinIdx {
		s.pinIdx[i] = -1
		s.transIdx[i] = -1
		s.bridgeIdx[i] = -1
	}
	return s
}

// workerSims returns n simulators over the receiver's circuit: the receiver
// itself plus n-1 pooled workers sharing its immutable flattened netlist.
// The pool grows on demand and is reused across runs.
func (s *Simulator) workerSims(n int) []*Simulator {
	for len(s.pool) < n-1 {
		w := newScratch(s.c)
		w.worker = len(s.pool) + 1
		w.gateID = s.gateID
		w.gateType = s.gateType
		w.faninStart = s.faninStart
		w.faninList = s.faninList
		w.cone = s.cone
		s.pool = append(s.pool, w)
	}
	sims := make([]*Simulator, 0, n)
	sims = append(sims, s)
	return append(sims, s.pool[:n-1]...)
}

// Run fault-simulates seq against faults and returns the outcome.
func Run(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, opts Options) *Outcome {
	return New(c).Run(seq, faults, opts)
}

// Run fault-simulates seq against faults and returns the outcome.
//
// With Options.Workers > 1 the independent fault groups are sharded over a
// worker pool; each group writes a disjoint slice region of the outcome, so
// the result is bit-identical to the sequential run regardless of scheduling.
func (s *Simulator) Run(seq *sim.Sequence, faults []fault.Fault, opts Options) *Outcome {
	numGroups := (len(faults) + GroupSize - 1) / GroupSize
	workers := opts.Workers
	if workers < 1 || opts.OutputHook != nil {
		workers = 1 // the hook's ordering contract requires sequential runs
	}
	opts.Kernel = s.runKernel(faults, numGroups, workers, opts) // resolve env/default exactly once
	opts.Trace.Begin(numGroups, opts.Kernel.String())
	if opts.InitialStates != nil {
		// A silently mis-shaped continuation state would corrupt the run
		// (short copies leave stale flip-flop words in place); fail loudly.
		if len(opts.InitialStates) != numGroups {
			panic(fmt.Sprintf("fsim: InitialStates has %d group states for %d fault groups (fault list and grouping must match the saving run)",
				len(opts.InitialStates), numGroups))
		}
		for g, st := range opts.InitialStates {
			if len(st) != len(s.c.DFFs) {
				panic(fmt.Sprintf("fsim: InitialStates[%d] has %d state words for a circuit with %d flip-flops",
					g, len(st), len(s.c.DFFs)))
			}
		}
	}
	out := &Outcome{
		Detected: make([]bool, len(faults)),
		DetTime:  make([]int, len(faults)),
	}
	for i := range out.DetTime {
		out.DetTime[i] = -1
	}
	if opts.ObserveLines {
		out.Lines = make([]Bitset, len(faults))
		for i := range out.Lines {
			out.Lines[i] = NewBitset(len(s.c.Nodes))
		}
	}
	if opts.SaveStates {
		out.FinalStates = make([][]logic.W, numGroups)
	}
	stop := seq.Len()
	if opts.StopTime > 0 && opts.StopTime < stop {
		stop = opts.StopTime
	}
	if numGroups == 0 {
		return out
	}

	first := 0
	if ctxDone(opts.Ctx) {
		out.Cancelled = true
		telemetry.Add(telemetry.CtrGroupsCancelled, int64(numGroups))
		return out
	}
	if opts.Kernel == KernelSlab {
		// The slab kernel shards batches-of-W instead of single groups; its
		// dispatch (including the abort-first-group path) lives in runSlab.
		s.runSlab(seq, faults, numGroups, workers, stop, opts, out)
		return out
	}
	if opts.AbortAfterFirstGroupIfNone {
		// The Section 4.2 effort reduction: the first group (target fault
		// plus sample) always runs alone, before any fan-out.
		var tb counterBatch
		out.NumDetected = s.runGroup(seq, faults, 0, min(GroupSize, len(faults)), stop, opts, out, &tb)
		tb.flush()
		if out.NumDetected == 0 {
			// Only a run that actually skipped groups counts as aborted;
			// a fully simulated single-group run is a complete result.
			out.Aborted = numGroups > 1
			return out
		}
		first = 1
	}
	if rem := numGroups - first; workers > rem {
		workers = rem
	}

	if workers <= 1 {
		var tb counterBatch
		for g := first; g < numGroups; g++ {
			if ctxDone(opts.Ctx) {
				out.Cancelled = true
				tb.cancelled += int64(numGroups - g)
				break
			}
			lo := g * GroupSize
			out.NumDetected += s.runGroup(seq, faults, lo, min(lo+GroupSize, len(faults)), stop, opts, out, &tb)
		}
		tb.flush()
		return out
	}

	// Parallel fan-out: workers pull group indices from an atomic cursor and
	// write disjoint regions of the outcome; per-group detection counts are
	// merged in group order afterwards, so the sum (and everything else) is
	// independent of scheduling.
	detected := make([]int, numGroups)
	var cursor atomic.Int64
	cursor.Store(int64(first))
	var wg sync.WaitGroup
	for _, ws := range s.workerSims(workers) {
		wg.Add(1)
		go func(ws *Simulator) {
			defer wg.Done()
			var tb counterBatch
			defer tb.flush()
			for {
				// Checked before claiming, so a cancelled run stops
				// scheduling passes and this worker goroutine exits (the
				// "return workers to the pool" half of job cancellation).
				if ctxDone(opts.Ctx) {
					return
				}
				g := int(cursor.Add(1)) - 1
				if g >= numGroups {
					return
				}
				lo := g * GroupSize
				detected[g] = ws.runGroup(seq, faults, lo, min(lo+GroupSize, len(faults)), stop, opts, out, &tb)
			}
		}(ws)
	}
	wg.Wait()
	for _, n := range detected[first:] {
		out.NumDetected += n
	}
	// cursor counts claimed groups; every claimed group ran to completion,
	// so anything short of numGroups was skipped due to cancellation.
	if ctxDone(opts.Ctx) {
		if claimed := int(cursor.Load()); claimed < numGroups {
			out.Cancelled = true
			telemetry.Add(telemetry.CtrGroupsCancelled, int64(numGroups-claimed))
		}
	}
	return out
}

// runKernel is the concrete kernel of one run. An explicit Options.Kernel or
// FSIM_KERNEL wins; otherwise the choice depends only on the run's inputs
// and its worker count: slab when every fault is stuck-at and the run's
// slab lane width (slabLanes) is at least 2, and event for everything else.
// The width is 1 for single-group runs, hooked runs such as the MISR
// self-test, netlists too large for the L2 budget (s35932, where
// BENCH_kernel.json has event 12% ahead of W=1 slab), and runs with no more
// groups than workers; there slab has nothing to batch. Transition and
// bridge faults also stay on event, since the slab arena's injection layout
// is stuck-at only; an explicit slab run carrying them resolves to dense
// (same outcome by the kernel contract, different speed).
func (s *Simulator) runKernel(faults []fault.Fault, numGroups, workers int, opts Options) Kernel {
	k := opts.Kernel.Resolve()
	switch {
	case k == KernelAuto:
		if !hasModelFaults(faults) && s.slabLanes(opts, numGroups, workers) > 1 {
			return KernelSlab
		}
		return KernelEvent
	case k == KernelSlab && hasModelFaults(faults):
		return KernelDense
	}
	return k
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

// counterBatch locally accumulates the hot-path telemetry counters of one
// worker (or one sequential run) and flushes them with a handful of atomic
// adds. Totals stay exact under any worker count; only the add frequency
// changes. The gateEvals of the event kernel count gates actually evaluated
// (skipped holds the rest), so gateEvals+skipped equals the dense total.
type counterBatch struct {
	gateEvals, vectors, passes, dropped int64
	events, skipped, cones, cancelled   int64
	sweepFB, slabPasses, lanesIdle      int64
}

func (b *counterBatch) flush() {
	if b.passes == 0 && b.cancelled == 0 {
		return
	}
	telemetry.Add(telemetry.CtrGateEvals, b.gateEvals)
	telemetry.Add(telemetry.CtrVectors, b.vectors)
	telemetry.Add(telemetry.CtrGroupPasses, b.passes)
	telemetry.Add(telemetry.CtrFaultsDropped, b.dropped)
	telemetry.Add(telemetry.CtrEventsScheduled, b.events)
	telemetry.Add(telemetry.CtrGatesSkipped, b.skipped)
	telemetry.Add(telemetry.CtrConeHits, b.cones)
	telemetry.Add(telemetry.CtrGroupsCancelled, b.cancelled)
	telemetry.Add(telemetry.CtrSweepFallbacks, b.sweepFB)
	telemetry.Add(telemetry.CtrSlabPasses, b.slabPasses)
	telemetry.Add(telemetry.CtrSlabLanesIdle, b.lanesIdle)
	*b = counterBatch{}
}

// runGroup simulates faults[lo:hi] (at most GroupSize of them) in slots
// 1..hi-lo alongside the fault-free machine in slot 0, writing only this
// group's disjoint regions of out (Detected/DetTime/Lines for faults[lo:hi],
// FinalStates[lo/GroupSize]) and returning the number of detections. Never
// touching shared scalars is what makes the parallel fan-out race-free.
// Dispatches on the (already resolved) Options.Kernel.
func (s *Simulator) runGroup(seq *sim.Sequence, faults []fault.Fault, lo, hi, stop int, opts Options, out *Outcome, tb *counterBatch) int {
	if opts.Kernel == KernelEvent && !groupHasBridge(faults[lo:hi]) {
		return s.runGroupEvent(seq, faults, lo, hi, stop, opts, out, tb)
	}
	// Bridge groups take the dense kernel's two-pass cycle: the event
	// worklist cannot express a force whose value depends on a possibly
	// higher-level node resolved within the same time unit.
	return s.runGroupDense(seq, faults, lo, hi, stop, opts, out, tb)
}

// runGroupDense is the original kernel: one full pass over the levelized
// netlist per time unit. It is the trusted baseline the event kernel is
// differentially locked against and stays byte-for-byte unoptimized.
func (s *Simulator) runGroupDense(seq *sim.Sequence, faults []fault.Fault, lo, hi, stop int, opts Options, out *Outcome, tb *counterBatch) int {
	// The dense kernel rebuilds injection without site tracking, so any
	// event-kernel value snapshot on this scratch simulator is now stale.
	s.invalidateEvent()
	c := s.c
	tg := opts.Trace.Group(lo / GroupSize)
	tg.SetWorker(s.worker)
	if tg != nil && lo == 0 {
		s.actValid = false // activity baseline starts with this pass
	}
	// Build injection tables. Stem masks and pin indices are cleared only at
	// the nodes touched by the previous group.
	for i := range s.stemMask0 {
		s.stemMask0[i] = 0
		s.stemMask1[i] = 0
	}
	for _, n := range s.pinNodes {
		s.pinIdx[n] = -1
	}
	s.pinNodes = s.pinNodes[:0]
	s.pinForces = s.pinForces[:0]
	s.clearModelInjection()
	for k := lo; k < hi; k++ {
		f := faults[k]
		slot := uint(k - lo + 1)
		switch {
		case f.Kind == fault.KindTransition:
			s.addTransSite(f.Node, 1<<slot, f.Stuck)
		case f.Kind == fault.KindBridge:
			s.addBridgeSite(f.Node, f.Node2, 1<<slot, f.Stuck == 1)
			s.addBridgeSite(f.Node2, f.Node, 1<<slot, f.Stuck == 1)
		case f.Pin < 0:
			if f.Stuck == 0 {
				s.stemMask0[f.Node] |= 1 << slot
			} else {
				s.stemMask1[f.Node] |= 1 << slot
			}
		default:
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
	}

	// Telemetry is accumulated into the caller's batch (flushed once per
	// worker with four atomic adds), keeping the per-gate loop untouched.
	units := 0
	det := 0

	state := s.next
	if opts.InitialStates != nil {
		copy(state, opts.InitialStates[lo/GroupSize])
	} else {
		for i := range state {
			state[i] = logic.Broadcast(opts.Init)
		}
	}
	vals := s.vals

	activeMask := groupMask(hi - lo) // slots still undetected

	for u := 0; u < stop; u++ {
		units++
		s.densePass(seq, state, u, false)
		if s.hasBridge {
			// Two-pass cycle: the first pass's nominal stem values resolve
			// each bridge's wired value, the replay pass applies it at both
			// stems so every downstream gate (at any level) sees it.
			s.resolveBridges()
			s.densePass(seq, state, u, true)
		}
		if tg != nil && lo == 0 {
			s.traceActivity(tg)
		}
		// Detection at primary outputs.
		for poi, id := range c.Outputs {
			d := vals[id].DiffMask() & activeMask
			for ; d != 0; d &= d - 1 {
				slot := trailingZeros(d)
				fi := lo + slot - 1
				out.Detected[fi] = true
				out.DetTime[fi] = u + opts.TimeOffset
				det++
				activeMask &^= 1 << uint(slot)
				if tg != nil {
					tg.Detect(fi, u+opts.TimeOffset, poi)
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
		// Observability recording on every node.
		if opts.ObserveLines {
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
	tg.SetVectors(units)
	tb.gateEvals += int64(units) * int64(len(s.gateID))
	tb.vectors += int64(units)
	tb.passes++
	tb.dropped += int64(det)
	return det
}

// inject applies the group's stem faults at node id.
func (s *Simulator) inject(id circuit.NodeID, w logic.W) logic.W {
	if m := s.stemMask0[id]; m != 0 {
		w = w.ForceMask(m, false)
	}
	if m := s.stemMask1[id]; m != 0 {
		w = w.ForceMask(m, true)
	}
	return w
}

func groupMask(n int) uint64 {
	// slots 1..n
	if n >= 63 {
		return ^uint64(0) &^ 1
	}
	return ((uint64(1) << uint(n+1)) - 1) &^ 1
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// eval1 evaluates a 1-input gate.
func eval1(t circuit.GateType, a logic.W) logic.W {
	switch t {
	case circuit.Not, circuit.Nand, circuit.Nor, circuit.Xnor:
		return a.Not()
	default:
		return a
	}
}

// eval2 evaluates a 2-input gate without touching the scratch buffer.
func eval2(t circuit.GateType, a, b logic.W) logic.W {
	switch t {
	case circuit.And:
		return a.And(b)
	case circuit.Nand:
		return a.And(b).Not()
	case circuit.Or:
		return a.Or(b)
	case circuit.Nor:
		return a.Or(b).Not()
	case circuit.Xor:
		return a.Xor(b)
	case circuit.Xnor:
		return a.Xor(b).Not()
	default:
		panic("fsim: eval2 on non-gate type")
	}
}

// evalW evaluates a gate over dual-rail words.
func evalW(t circuit.GateType, in []logic.W) logic.W {
	switch t {
	case circuit.Buf:
		return in[0]
	case circuit.Not:
		return in[0].Not()
	case circuit.And, circuit.Nand:
		v := in[0]
		for _, x := range in[1:] {
			v = v.And(x)
		}
		if t == circuit.Nand {
			v = v.Not()
		}
		return v
	case circuit.Or, circuit.Nor:
		v := in[0]
		for _, x := range in[1:] {
			v = v.Or(x)
		}
		if t == circuit.Nor {
			v = v.Not()
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := in[0]
		for _, x := range in[1:] {
			v = v.Xor(x)
		}
		if t == circuit.Xnor {
			v = v.Not()
		}
		return v
	default:
		panic("fsim: evalW on non-gate type")
	}
}
