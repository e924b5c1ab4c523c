package fsim

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// cancelKernels are the kernels the cancellation tests run explicitly, so
// every FSIM_KERNEL setting covers Run's batch loop both with one group per
// batch (dense, event) and with several (slab: lanes caps the batch width).
var cancelKernels = []Kernel{KernelDense, KernelEvent, KernelSlab}

// TestCancelBeforeStart: a context that is already cancelled when Run is
// entered skips every fault group, marks the outcome Cancelled, and counts
// all groups on fsim.groups_cancelled, for every kernel on both the
// sequential and the parallel path.
func TestCancelBeforeStart(t *testing.T) {
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, k := range cancelKernels {
		t.Run(k.String(), func(t *testing.T) {
			for _, workers := range []int{0, 4} {
				before := telemetry.Counters()
				out := Run(c, seq, faults, Options{Init: logic.Zero, Workers: workers, Kernel: k, SlabLanes: 4, Ctx: ctx})
				d := telemetry.Counters().Sub(before)

				if !out.Cancelled {
					t.Fatalf("workers=%d: Cancelled = false", workers)
				}
				if out.NumDetected != 0 {
					t.Errorf("workers=%d: NumDetected = %d on a pre-cancelled run", workers, out.NumDetected)
				}
				groups := int64((len(faults) + GroupSize - 1) / GroupSize)
				if got := d.Get(telemetry.CtrGroupsCancelled); got != groups {
					t.Errorf("workers=%d: groups_cancelled delta = %d, want %d", workers, got, groups)
				}
				if got := d.Get(telemetry.CtrGroupPasses); got != 0 {
					t.Errorf("workers=%d: group passes delta = %d, want 0", workers, got)
				}
			}
		})
	}
}

// TestCancelMidRun cancels from the OutputHook during the first group's
// simulation (the hook forces sequential execution, making the cut
// deterministic): the in-flight group completes, every later group is
// skipped and counted, and the outcome is marked Cancelled.
func TestCancelMidRun(t *testing.T) {
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	groups := (len(faults) + GroupSize - 1) / GroupSize
	if groups < 2 {
		t.Fatalf("need >= 2 fault groups, have %d", groups)
	}
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 32)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := telemetry.Counters()
	out := Run(c, seq, faults, Options{
		Init: logic.Zero,
		Ctx:  ctx,
		OutputHook: func(lo, hi, u int, po []logic.W) {
			if lo == 0 && u == 0 {
				cancel()
			}
		},
	})
	d := telemetry.Counters().Sub(before)

	if !out.Cancelled {
		t.Fatal("Cancelled = false after mid-run cancellation")
	}
	if got := d.Get(telemetry.CtrGroupPasses); got != 1 {
		t.Errorf("group passes delta = %d, want 1 (first group runs to completion)", got)
	}
	if got := d.Get(telemetry.CtrGroupsCancelled); got != int64(groups-1) {
		t.Errorf("groups_cancelled delta = %d, want %d", got, groups-1)
	}
}

// pollCtx cancels itself on its n-th Done poll: a deterministic way to land
// a cancellation between two batches.
type pollCtx struct {
	context.Context
	cancel context.CancelFunc
	n      int64
	polls  atomic.Int64
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Done()
}

// TestCancelMidRunParallel cancels runs of every kernel (slab with
// two-group batches) part-way through, on the sequential loop and on the
// worker pool. Cancelling on the third context poll (Run's entry check, the
// first claim, the second claim) lets exactly one batch run on either path,
// so the skipped-group count is pinned for one-group and for multi-group
// batches. Cancellations raced against the pool must terminate too, with
// the groups that ran plus the groups counted as cancelled accounting for
// the whole universe — i.e. cancelled workers really returned to the pool
// instead of finishing the sweep — and every recorded detection
// well-formed. Run under -race this also exercises the ctx check on the
// claim path.
func TestCancelMidRunParallel(t *testing.T) {
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	groups := int64((len(faults) + GroupSize - 1) / GroupSize)
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 64)

	for _, k := range cancelKernels {
		t.Run(k.String(), func(t *testing.T) {
			w := int64(1)
			if k == KernelSlab {
				w = 2
			}
			for _, workers := range []int{0, 4} {
				parent, cancel := context.WithCancel(context.Background())
				ctx := &pollCtx{Context: parent, cancel: cancel, n: 3}
				before := telemetry.Counters()
				out := Run(c, seq, faults, Options{Init: logic.Zero, Workers: workers, Kernel: k, SlabLanes: 2, Ctx: ctx})
				d := telemetry.Counters().Sub(before)
				cancel()
				ran, skipped := d.Get(telemetry.CtrGroupPasses), d.Get(telemetry.CtrGroupsCancelled)
				if !out.Cancelled || ran != w || skipped != groups-w {
					t.Fatalf("workers=%d: Cancelled = %v, ran %d, cancelled %d; want true, %d, %d",
						workers, out.Cancelled, ran, skipped, w, groups-w)
				}
			}
			for trial := 0; trial < 4; trial++ {
				ctx, cancel := context.WithCancel(context.Background())
				go cancel()
				before := telemetry.Counters()
				out := Run(c, seq, faults, Options{Init: logic.Zero, Workers: 4, Kernel: k, SlabLanes: 2, Ctx: ctx})
				d := telemetry.Counters().Sub(before)

				ran := d.Get(telemetry.CtrGroupPasses)
				skipped := d.Get(telemetry.CtrGroupsCancelled)
				if ran+skipped != groups {
					t.Fatalf("trial %d: ran %d + cancelled %d != %d groups", trial, ran, skipped, groups)
				}
				if out.Cancelled != (skipped > 0) {
					t.Fatalf("trial %d: Cancelled = %v with %d groups skipped", trial, out.Cancelled, skipped)
				}
				for fi, det := range out.Detected {
					if det && out.DetTime[fi] < 0 {
						t.Fatalf("trial %d: detected fault %d with negative DetTime", trial, fi)
					}
				}
				cancel()
			}
		})
	}
}

// TestNilCtxUnaffected: runs without a context behave exactly as before and
// never touch the cancellation counter.
func TestNilCtxUnaffected(t *testing.T) {
	c, err := iscas.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 32)
	before := telemetry.Counters()
	out := Run(c, seq, faults, Options{Init: logic.X})
	d := telemetry.Counters().Sub(before)
	if out.Cancelled {
		t.Error("Cancelled = true without a context")
	}
	if got := d.Get(telemetry.CtrGroupsCancelled); got != 0 {
		t.Errorf("groups_cancelled delta = %d, want 0", got)
	}
}
