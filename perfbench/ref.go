package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The speed reference. On a shared virtual machine the speed of the host
// changes while a benchmark runs: the hypervisor steals CPU time, and other
// guests on the same cores slow down the caches and the clock. On one
// 2-vCPU VM the same s1196 compile took anywhere from 8 s to 24 s of wall
// time, and its CPU time ranged over 13–29 s, so neither wall time nor CPU
// time describes the program alone.
//
// The benchmark therefore times a fixed piece of work of its own, the
// reference, before and after every timed block (a batch of set-ups or a
// round), and reports wall times scaled to a host on which the reference
// takes refNominal:
//
//	normalised = wall × refNominal / ref
//
// where ref is the median of the run's readings (see factor). The
// reference is bit-parallel simulation of a fixed random netlist, the kind
// of work fault simulation does, shared among as many goroutines as there
// are CPUs. It is written
// here rather than taken from the repository, so no change to the program
// can move it.
const (
	refGates  = 4096
	refWords  = 8   // 64-bit words per gate: 512 patterns at once
	refPasses = 400 // passes over the netlist in one burst, per CPU
	refBursts = 15  // a reading is the median of this many bursts
	// refNominal is the median burst time on the host the bounds were set
	// on (2 vCPUs at a quiet time), so normalised times read as seconds on
	// that host.
	refNominal = 0.0185
)

// refNet is the reference netlist: gate g (from 64 on; the first 64 are
// inputs) applies op[g] to gates a[g] and b[g], which come before it.
type refNet struct {
	a, b []int32
	op   []uint8
	v    []uint64 // refWords words per gate
}

func newRefNet() *refNet {
	n := &refNet{
		a:  make([]int32, refGates),
		b:  make([]int32, refGates),
		op: make([]uint8, refGates),
		v:  make([]uint64, refGates*refWords),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for g := 64; g < refGates; g++ {
		n.a[g] = int32(xorshift(&x) % uint64(g))
		n.b[g] = int32(xorshift(&x) % uint64(g))
		n.op[g] = uint8(xorshift(&x) % 4)
	}
	return n
}

func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

// pass applies a pseudo-random input pattern drawn from seed, evaluates
// every gate, and folds the last 64 gates' values into a checksum.
func (n *refNet) pass(seed uint64) uint64 {
	v := n.v
	for i := 0; i < 64*refWords; i++ {
		v[i] = xorshift(&seed)
	}
	for g := 64; g < refGates; g++ {
		a, b := int(n.a[g])*refWords, int(n.b[g])*refWords
		o := v[g*refWords : (g+1)*refWords]
		switch n.op[g] {
		case 0:
			for w := range o {
				o[w] = v[a+w] & v[b+w]
			}
		case 1:
			for w := range o {
				o[w] = v[a+w] | v[b+w]
			}
		case 2:
			for w := range o {
				o[w] = v[a+w] ^ v[b+w]
			}
		default:
			for w := range o {
				o[w] = ^(v[a+w] & v[b+w])
			}
		}
	}
	var sum uint64
	for _, w := range v[(refGates-64)*refWords:] {
		sum ^= w
	}
	return sum
}

// refBurst shares refPasses × len(nets) passes among len(nets) goroutines,
// one net each, the way fsim's workers share fault groups: a goroutine
// that gets less CPU does fewer passes. It returns the wall time and the
// XOR of every pass's checksum, which does not depend on which goroutine
// ran which pass.
func refBurst(nets []*refNet) (time.Duration, uint64) {
	total := int64(refPasses * len(nets))
	var next atomic.Int64
	sums := make([]uint64, len(nets))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, n := range nets {
		wg.Add(1)
		go func(c int, n *refNet) {
			defer wg.Done()
			for i := next.Add(1); i <= total; i = next.Add(1) {
				sums[c] ^= n.pass(uint64(i))
			}
		}(c, n)
	}
	wg.Wait()
	d := time.Since(t0)
	var sum uint64
	for _, s := range sums {
		sum ^= s
	}
	return d, sum
}

// gauge reads the speed reference between timed blocks.
type gauge struct {
	nets     []*refNet // one per CPU, allocated once so bursts make no garbage
	sum      uint64    // the checksum of a burst
	readings []float64 // seconds per burst
}

// read takes a reading: the median of refBursts bursts.
func (g *gauge) read() {
	if g.nets == nil {
		for c := 0; c < runtime.NumCPU(); c++ {
			g.nets = append(g.nets, newRefNet())
		}
	}
	ds := make([]float64, refBursts)
	for i := range ds {
		d, sum := refBurst(g.nets)
		// Checking the result keeps the work from being optimised away.
		if g.sum != 0 && sum != g.sum {
			panic("perfbench: the speed reference computed a different checksum")
		}
		g.sum = sum
		ds[i] = d.Seconds()
	}
	g.readings = append(g.readings, median(ds))
}

// around runs a timed block with a reading before it (unless one was just
// taken after the previous block) and a reading after it.
func (g *gauge) around(block func()) {
	if len(g.readings) == 0 {
		g.read()
	}
	block()
	g.read()
}

// factor is refNominal over the median of the run's readings: it turns the
// run's wall times into normalised times. One factor serves the whole run.
// A reading lasts well under a second and catches the host's brief slow
// spells, which a round of many seconds averages out; the median over the
// readings before and after every block of the run tracks the host's speed
// without following those spells.
func (g *gauge) factor() float64 { return refNominal / median(g.readings) }
