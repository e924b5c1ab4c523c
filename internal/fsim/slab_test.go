package fsim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
)

// TestSlabWorkersBitIdentical shards batches-of-W over the worker pool and
// checks the merged outcome against the sequential slab run and the dense
// oracle, across lane widths that split the group count evenly and not.
func TestSlabWorkersBitIdentical(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(11), c.NumInputs(), 48)
	s := New(c)
	want := s.Run(seq, faults, Options{Init: logic.Zero, Kernel: KernelDense})
	for _, lanes := range []int{1, 3, 8} {
		for _, workers := range []int{1, 2, 7} {
			got := s.Run(seq, faults, Options{
				Init: logic.Zero, Kernel: KernelSlab, SlabLanes: lanes, Workers: workers,
			})
			if got.NumDetected != want.NumDetected {
				t.Fatalf("lanes=%d workers=%d: detected %d, want %d",
					lanes, workers, got.NumDetected, want.NumDetected)
			}
			for fi := range want.Detected {
				if got.Detected[fi] != want.Detected[fi] || got.DetTime[fi] != want.DetTime[fi] {
					t.Fatalf("lanes=%d workers=%d: fault %d diverges", lanes, workers, fi)
				}
			}
		}
	}
}

// TestSlabAbortAfterFirstGroup: the Section 4.2 effort-reduction contract —
// group 0 runs alone and, if it detects nothing, the remaining groups are
// never simulated. Must match the dense kernel's abort decision exactly.
func TestSlabAbortAfterFirstGroup(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	rng := randutil.New(3)

	// An all-X sequence detects nothing (binary difference is required), so
	// the abort fires.
	blank := sim.NewSequence(c.NumInputs())
	for u := 0; u < 4; u++ {
		vec := make([]logic.V, c.NumInputs())
		for i := range vec {
			vec[i] = logic.X
		}
		blank.Append(vec)
	}
	out := Run(c, blank, faults, Options{
		Init: logic.X, Kernel: KernelSlab, AbortAfterFirstGroupIfNone: true,
	})
	if !out.Aborted || out.NumDetected != 0 {
		t.Fatalf("blank sequence: aborted=%v detected=%d, want abort with 0",
			out.Aborted, out.NumDetected)
	}

	// A real random sequence detects group-0 faults, so the run continues
	// and must match the unaborted dense result.
	seq := sim.RandomSequence(rng, c.NumInputs(), 32)
	want := Run(c, seq, faults, Options{Init: logic.Zero, Kernel: KernelDense})
	got := Run(c, seq, faults, Options{
		Init: logic.Zero, Kernel: KernelSlab, AbortAfterFirstGroupIfNone: true, SlabLanes: 4,
	})
	if got.Aborted {
		t.Fatal("aborted although group 0 detected faults")
	}
	if got.NumDetected != want.NumDetected {
		t.Fatalf("detected %d, want %d", got.NumDetected, want.NumDetected)
	}
	for fi := range want.Detected {
		if got.Detected[fi] != want.Detected[fi] || got.DetTime[fi] != want.DetTime[fi] {
			t.Fatalf("fault %d diverges after non-aborted slab run", fi)
		}
	}
}

// TestSlabOutputHook: the hook's ordering contract (group 0's whole sequence
// first, then group 1's, ...) is incompatible with lane interleaving, so the
// slab kernel must drop to W=1 and sequential execution — even when the
// options ask for wide lanes and many workers.
func TestSlabOutputHook(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(5), c.NumInputs(), 10)
	var calls []int
	hook := func(lo, hi, u int, po []logic.W) { calls = append(calls, lo) }
	s := New(c)
	if w := s.SlabWidth(Options{SlabLanes: 8, OutputHook: hook}); w != 1 {
		t.Fatalf("SlabWidth under OutputHook = %d, want 1", w)
	}
	out := s.Run(seq, faults, Options{
		Init: logic.Zero, Kernel: KernelSlab, SlabLanes: 8, Workers: 8, OutputHook: hook,
	})
	groups := (len(faults) + GroupSize - 1) / GroupSize
	if len(calls) != groups*seq.Len() {
		t.Fatalf("hook called %d times, want %d", len(calls), groups*seq.Len())
	}
	for i, lo := range calls {
		if want := (i / seq.Len()) * GroupSize; lo != want {
			t.Fatalf("call %d: group lo=%d, want %d (strict group order)", i, lo, want)
		}
	}
	if want := Run(c, seq, faults, Options{Init: logic.Zero, Kernel: KernelDense}); out.NumDetected != want.NumDetected {
		t.Fatalf("hooked slab run detected %d, want %d", out.NumDetected, want.NumDetected)
	}
}

// TestSlabWidthClamps pins the adaptive lane heuristic's bounds: tiny
// netlists saturate at maxSlabLanes, the explicit option is clamped to the
// same cap, and a netlist too large for the L2 budget drops to one lane.
func TestSlabWidthClamps(t *testing.T) {
	small := New(iscas.MustLoad("s27"))
	if w := small.slabLanesAuto(); w != maxSlabLanes {
		t.Fatalf("s27 auto lanes = %d, want cap %d", w, maxSlabLanes)
	}
	if w := small.SlabWidth(Options{SlabLanes: 99}); w != maxSlabLanes {
		t.Fatalf("SlabWidth(99) = %d, want clamp to %d", w, maxSlabLanes)
	}
	if w := small.SlabWidth(Options{SlabLanes: 5}); w != 5 {
		t.Fatalf("SlabWidth(5) = %d, want the explicit value", w)
	}
	big := New(iscas.MustLoad("s35932"))
	if w := big.slabLanesAuto(); w < 1 || w > 2 {
		t.Fatalf("s35932 auto lanes = %d, want ~1 (L2 budget exhausted)", w)
	}
}

// TestSlabLanesKeepWorkersBusy pins the per-run lane width: the adaptive
// width is clamped to the group count and to ceil(groups/workers), so a run
// never has fewer batches to share out than it could keep busy and its
// busiest goroutine carries no more groups than under the per-group
// fan-out; an explicit SlabLanes is clamped to the group count only.
func TestSlabLanesKeepWorkersBusy(t *testing.T) {
	s := New(iscas.MustLoad("s27")) // adaptive width: maxSlabLanes
	cases := []struct{ groups, workers, lanes, want int }{
		{20, 1, 0, maxSlabLanes},
		{3, 1, 0, 3},
		{20, 2, 0, 10},
		{20, 4, 0, 5},
		{20, 16, 0, 2},
		{20, 20, 0, 1},
		{20, 64, 0, 1},
		{20, 4, 8, 8},
		{3, 4, 8, 3},
	}
	for _, tc := range cases {
		w := s.slabLanes(Options{SlabLanes: tc.lanes}, tc.groups, tc.workers)
		if w != tc.want {
			t.Errorf("%d groups, %d workers, SlabLanes %d: width %d, want %d", tc.groups, tc.workers, tc.lanes, w, tc.want)
		}
		if busiest := (tc.groups + tc.workers - 1) / tc.workers; tc.lanes == 0 && w > busiest {
			t.Errorf("%d groups, %d workers: width %d puts more than %d groups on one goroutine", tc.groups, tc.workers, w, busiest)
		}
	}
	hook := func(lo, hi, u int, po []logic.W) {}
	if w := s.slabLanes(Options{OutputHook: hook}, 20, 1); w != 1 {
		t.Errorf("OutputHook: width %d, want 1", w)
	}
}

// TestSlabArenaReusedAcrossStrides: runs over shrinking fault lists clamp
// the lane stride to their group count; each stride change must re-zero and
// reslice the existing arena rather than reallocate it, and the resliced
// arena must still reproduce the dense outcome.
func TestSlabArenaReusedAcrossStrides(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(5), c.NumInputs(), 40)
	s := New(c)
	opts := Options{Init: logic.Zero, Kernel: KernelSlab, SlabLanes: 8}
	s.Run(seq, faults, opts)
	if s.slab.lanes != 8 {
		t.Fatalf("stride %d, want 8 (s298 has %d faults)", s.slab.lanes, len(faults))
	}
	arena := &s.slab.vals[0]
	for _, n := range []int{4 * GroupSize, 2*GroupSize + 5, GroupSize + 1, len(faults)} {
		want := New(c).Run(seq, faults[:n], Options{Init: logic.Zero, Kernel: KernelDense})
		got := s.Run(seq, faults[:n], opts)
		for fi := range want.Detected {
			if got.Detected[fi] != want.Detected[fi] || got.DetTime[fi] != want.DetTime[fi] {
				t.Fatalf("%d faults (stride %d): fault %d diverges from dense", n, s.slab.lanes, fi)
			}
		}
		if &s.slab.vals[0] != arena {
			t.Errorf("%d faults (stride %d): slab arena reallocated", n, s.slab.lanes)
		}
	}
}
