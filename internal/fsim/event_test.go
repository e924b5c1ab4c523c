package fsim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/randutil"
	"repro/internal/rcg"
	"repro/internal/sim"
)

func TestKernelParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Kernel
		ok   bool
	}{
		{"", KernelAuto, true},
		{"auto", KernelAuto, true},
		{"event", KernelEvent, true},
		{"EVENT", KernelEvent, true},
		{"dense", KernelDense, true},
		{"Dense", KernelDense, true},
		{"fast", KernelAuto, false},
	}
	for _, tc := range cases {
		k, err := ParseKernel(tc.in)
		if (err == nil) != tc.ok || k != tc.want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v, ok=%v", tc.in, k, err, tc.want, tc.ok)
		}
	}
	for _, k := range []Kernel{KernelAuto, KernelEvent, KernelDense} {
		if r, err := ParseKernel(k.String()); err != nil || r != k {
			t.Errorf("ParseKernel(%v.String()) = %v, %v; want round trip", k, r, err)
		}
	}
}

func TestKernelResolve(t *testing.T) {
	t.Setenv("FSIM_KERNEL", "")
	if got := KernelAuto.Resolve(); got != KernelAuto {
		t.Errorf("Resolve with unset env = %v, want auto (chosen per run)", got)
	}
	t.Setenv("FSIM_KERNEL", "dense")
	if got := KernelAuto.Resolve(); got != KernelDense {
		t.Errorf("Resolve with FSIM_KERNEL=dense = %v, want dense", got)
	}
	if got := KernelEvent.Resolve(); got != KernelEvent {
		t.Errorf("explicit kernel must beat the environment: got %v", got)
	}
	t.Setenv("FSIM_KERNEL", "nonsense")
	if got := KernelAuto.Resolve(); got != KernelAuto {
		t.Errorf("Resolve with unparsable env = %v, want auto", got)
	}
}

// TestAutoKernelPolicy pins the per-run kernel choice of KernelAuto through
// the trace's kernel annotation: slab for stuck-at runs whose slab lane
// width is at least 2, event for everything else — one group, no more
// groups than workers, transition or bridge faults, a hook, a netlist whose
// L2 budget leaves one lane (s35932) — and whatever FSIM_KERNEL names for
// all of them.
func TestAutoKernelPolicy(t *testing.T) {
	c := iscas.MustLoad("s298")
	big := iscas.MustLoad("s35932")
	stuck := fault.CollapsedUniverse(c)
	groups := (len(stuck) + GroupSize - 1) / GroupSize
	if groups < 4 {
		t.Fatalf("s298 has %d stuck-at fault groups, want at least 4", groups)
	}
	hook := func(lo, hi, u int, po []logic.W) {}
	cases := []struct {
		name    string
		c       *circuit.Circuit
		faults  []fault.Fault
		hook    func(lo, hi, u int, po []logic.W)
		workers int
		want    string
	}{
		{"stuck-at, several groups", c, stuck, nil, 1, "slab"},
		{"stuck-at, more groups than workers", c, stuck, nil, groups - 1, "slab"},
		{"stuck-at, as many workers as groups", c, stuck, nil, groups, "event"},
		{"stuck-at, one group", c, stuck[:GroupSize], nil, 1, "event"},
		{"stuck-at, one lane in the L2 budget", big, fault.CollapsedUniverse(big)[:2*GroupSize], nil, 1, "event"},
		{"transition", c, fault.CollapsedUniverseFor(c, fault.Transition{}), nil, 1, "event"},
		{"bridge", c, fault.CollapsedUniverseFor(c, fault.Bridging{}), nil, 1, "event"},
		{"output hook", c, stuck, hook, 1, "event"},
	}
	kernelOf := func(c *circuit.Circuit, faults []fault.Fault, hook func(lo, hi, u int, po []logic.W), workers int) string {
		seq := sim.RandomSequence(randutil.New(3), c.NumInputs(), 8)
		tr := obsv.NewTrace()
		New(c).Run(seq, faults, Options{Init: logic.Zero, OutputHook: hook, Workers: workers, Trace: tr})
		return tr.Kernel()
	}
	t.Setenv("FSIM_KERNEL", "")
	for _, tc := range cases {
		if got := kernelOf(tc.c, tc.faults, tc.hook, tc.workers); got != tc.want {
			t.Errorf("auto, %s: kernel %s, want %s", tc.name, got, tc.want)
		}
	}
	t.Setenv("FSIM_KERNEL", "dense")
	for _, tc := range cases {
		if got := kernelOf(tc.c, tc.faults, tc.hook, tc.workers); got != "dense" {
			t.Errorf("FSIM_KERNEL=dense, %s: kernel %s, want dense", tc.name, got)
		}
	}
}

// TestBuildConePure is the purity property the shared-cone design rests on:
// building the static cone data twice for the same circuit yields deeply
// equal results, and running simulations (sequential and parallel, both
// kernels) leaves the simulator's shared cone untouched.
func TestBuildConePure(t *testing.T) {
	for _, seed := range []uint64{3, 77, 512} {
		c := rcg.FromSeed(seed)
		a, b := BuildCone(c), BuildCone(c)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("rcg seed %d: two cone builds differ", seed)
		}
	}
	c := iscas.MustLoad("s298")
	s := New(c)
	snapshot := BuildCone(c)
	if !reflect.DeepEqual(s.cone, snapshot) {
		t.Fatalf("simulator cone differs from a fresh build")
	}
	rng := randutil.New(0xc0e)
	seq := sim.RandomSequence(rng, c.NumInputs(), 20)
	faults := fault.CollapsedUniverse(c)
	for _, k := range []Kernel{KernelEvent, KernelDense} {
		for _, workers := range []int{1, 4} {
			s.Run(seq, faults, Options{Init: logic.Zero, Workers: workers, Kernel: k,
				SaveStates: true, ObserveLines: true})
		}
	}
	if !reflect.DeepEqual(s.cone, snapshot) {
		t.Fatalf("running simulations mutated the shared cone")
	}
}

// TestEventKernelWorkerPool drives the event kernel through the worker pool
// with every outcome surface on, re-checking determinism against the dense
// sequential baseline. Its real value is under `make race`: the workers
// share one Cone read-only while each owns its worklists, and this is the
// test that proves it to the race detector.
func TestEventKernelWorkerPool(t *testing.T) {
	rng := randutil.New(0xeb1)
	for _, seed := range []uint64{5, 901, 4242} {
		c := rcg.FromSeed(seed)
		seq := sim.RandomSequence(rng, c.NumInputs(), 16)
		faults := fault.CollapsedUniverse(c)
		opts := Options{Init: logic.X, SaveStates: true, ObserveLines: true}
		opts.Kernel = KernelDense
		opts.Workers = 1
		want := Run(c, seq, faults, opts)
		s := New(c)
		opts.Kernel = KernelEvent
		for _, workers := range []int{1, 4, 8} {
			opts.Workers = workers
			// Two runs per pool size: the second exercises the reused,
			// warm per-worker event states.
			for pass := 0; pass < 2; pass++ {
				got := s.Run(seq, faults, opts)
				outcomesEqual(t, "event pool", want, got)
			}
		}
	}
}

// TestSkipFault pins the static-observability skip rule on a hand-built
// circuit with a dangling cone: u and w can never reach the primary output
// z, but u feeds the flip-flop's next state while w feeds nothing at all.
func TestSkipFault(t *testing.T) {
	c, err := bench.Parse("skipnet", strings.NewReader(`
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
u = OR(a, b)
d1 = DFF(u)
w = NOT(d1)
`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	id := func(name string) circuit.NodeID {
		n, ok := c.Lookup(name)
		if !ok {
			t.Fatalf("no node %q", name)
		}
		return n
	}
	stem := func(name string) fault.Fault { return fault.Fault{Node: id(name), Pin: -1} }
	cases := []struct {
		label string
		f     fault.Fault
		opts  Options
		want  bool
	}{
		{"detectable site never skips", stem("z"), Options{}, false},
		{"observation forces injection", stem("w"), Options{ObserveLines: true}, false},
		{"dangling cone skips", stem("w"), Options{}, true},
		{"dangling cone skips despite state saving", stem("w"), Options{SaveStates: true}, true},
		{"state-feeding site skips without state saving", stem("u"), Options{}, true},
		{"state-feeding site injects when states are saved", stem("u"), Options{SaveStates: true}, false},
		{"DFF pin fault injects when states are saved", fault.Fault{Node: id("d1"), Pin: 0}, Options{SaveStates: true}, false},
		{"DFF pin fault skips without state saving", fault.Fault{Node: id("d1"), Pin: 0}, Options{}, true},
	}
	for _, tc := range cases {
		if got := s.skipFault(tc.f, tc.opts); got != tc.want {
			t.Errorf("%s: skipFault = %v, want %v", tc.label, got, tc.want)
		}
	}
}
