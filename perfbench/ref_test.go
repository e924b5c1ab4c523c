package main

import "testing"

// TestGaugeFactor checks that one slow reading does not move the run's
// factor: it is refNominal over the median reading.
func TestGaugeFactor(t *testing.T) {
	g := gauge{readings: []float64{2 * refNominal, 2 * refNominal, 9 * refNominal}}
	if f := g.factor(); !near(f, 0.5) {
		t.Errorf("factor of %v = %v, want 0.5", g.readings, f)
	}
}

func TestSampleNormalise(t *testing.T) {
	s := newSample()
	s.time("x_s", 4)
	s.rate("x_per_s", 10)
	s.count("x.count", 7)
	s.metrics["x.ratio"] = 0.25
	s.normalise(0.5)
	want := map[string]float64{"x_s": 2, "x_per_s": 20, "x.count": 7, "x.ratio": 0.25}
	for k, v := range want {
		if !near(s.metrics[k], v) {
			t.Errorf("%s = %v after normalising by 0.5, want %v", k, s.metrics[k], v)
		}
	}
}

// TestRefBurstChecksum checks that a burst's checksum does not depend on
// how its passes were shared among the goroutines.
func TestRefBurstChecksum(t *testing.T) {
	n := newRefNet()
	var want uint64
	for i := 1; i <= 2*refPasses; i++ {
		want ^= n.pass(uint64(i))
	}
	for run := 0; run < 3; run++ {
		if _, got := refBurst([]*refNet{newRefNet(), newRefNet()}); got != want {
			t.Fatalf("two goroutines: checksum %x, want %x", got, want)
		}
	}
}
