package fsim_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/rcg"
)

// Kernel head-to-head benchmarks. Each case fault-simulates a weighted
// sequence (the pipeline's dominant workload: short per-input subsequences,
// so consecutive vectors differ in few inputs) against up to two fault
// groups on one reused simulator, so the event kernel's warm-start path is
// what gets measured. Compare with
//
//	go test ./internal/fsim -bench BenchmarkKernel
//
// and see BENCH_kernel.json (make bench-kernel) for the committed suite-wide
// numbers.

// kernelBenchCases is the benchmark menagerie: two synthetic rcg circuits
// (small/medium) and two suite circuits (the real s27 plus a suite member).
var kernelBenchCases = []struct {
	name string
	load func() *circuit.Circuit
}{
	{"rcg-small", func() *circuit.Circuit { return rcg.FromSeed(11) }},
	{"rcg-medium", func() *circuit.Circuit { return rcg.FromSeed(774) }},
	{"s27", func() *circuit.Circuit { return iscas.MustLoad("s27") }},
	{"s298", func() *circuit.Circuit { return iscas.MustLoad("s298") }},
}

func runKernelBenchmark(b *testing.B, k fsim.Kernel) {
	for _, tc := range kernelBenchCases {
		b.Run(tc.name, func(b *testing.B) {
			c := tc.load()
			rng := randutil.New(0xbe7c4)
			subs := make([]string, c.NumInputs())
			lengths := []int{1, 1, 1, 2, 2, 4, 8}
			for i := range subs {
				bs := make([]byte, lengths[rng.Intn(len(lengths))])
				for j := range bs {
					bs[j] = '0' + byte(rng.Intn(2))
				}
				subs[i] = string(bs)
			}
			seq := core.Assignment{Subs: subs}.GenSequence(512)
			faults := fault.CollapsedUniverse(c)
			if len(faults) > 2*fsim.GroupSize {
				faults = faults[:2*fsim.GroupSize]
			}
			s := fsim.New(c)
			opts := fsim.Options{Init: logic.Zero, Workers: 1, Kernel: k}
			s.Run(seq, faults, opts) // warm up caches and pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(seq, faults, opts)
			}
		})
	}
}

func BenchmarkKernelDense(b *testing.B) { runKernelBenchmark(b, fsim.KernelDense) }
func BenchmarkKernelEvent(b *testing.B) { runKernelBenchmark(b, fsim.KernelEvent) }
func BenchmarkKernelSlab(b *testing.B)  { runKernelBenchmark(b, fsim.KernelSlab) }

// BenchmarkKernelSlabColdArena is the arena's control experiment: every run
// takes a fresh simulator (built outside the timer), so allocs/op here is
// what every batch would pay without arena reuse. Compare with
// BenchmarkKernelSlab, whose warm arena allocates nothing per run beyond the
// outcome itself.
func BenchmarkKernelSlabColdArena(b *testing.B) {
	for _, tc := range kernelBenchCases {
		b.Run(tc.name, func(b *testing.B) {
			c := tc.load()
			rng := randutil.New(0xbe7c4)
			subs := make([]string, c.NumInputs())
			lengths := []int{1, 1, 1, 2, 2, 4, 8}
			for i := range subs {
				bs := make([]byte, lengths[rng.Intn(len(lengths))])
				for j := range bs {
					bs[j] = '0' + byte(rng.Intn(2))
				}
				subs[i] = string(bs)
			}
			seq := core.Assignment{Subs: subs}.GenSequence(512)
			faults := fault.CollapsedUniverse(c)
			if len(faults) > 2*fsim.GroupSize {
				faults = faults[:2*fsim.GroupSize]
			}
			opts := fsim.Options{Init: logic.Zero, Workers: 1, Kernel: fsim.KernelSlab}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := fsim.New(c) // cold arena: allocated on this run
				b.StartTimer()
				s.Run(seq, faults, opts)
			}
		})
	}
}
