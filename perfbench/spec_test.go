package main

import (
	"regexp"
	"testing"
)

func TestMetricNames(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name].run == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
}

// TestLayerMetricsMatchSpec checks that every per-layer metric of
// BENCHMARK.json is measured by some workload, and that every metric a
// workload must measure is one BENCHMARK.json names.
func TestLayerMetricsMatchSpec(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, m := range sp.PerLayer {
		named[m.Name] = true
	}
	measured := map[string]bool{"telemetry.trace_overhead_pct": true}
	for wname, w := range workloads {
		seen := map[string]bool{}
		for _, m := range w.layers {
			if !named[m] {
				t.Errorf("workload %s must measure %q, which BENCHMARK.json does not name", wname, m)
			}
			if seen[m] {
				t.Errorf("workload %s lists %q twice", wname, m)
			}
			seen[m], measured[m] = true, true
		}
	}
	for m := range named {
		if !measured[m] {
			t.Errorf("no workload measures per-layer metric %q", m)
		}
	}
}

func TestRefusesFSIMKernel(t *testing.T) {
	t.Setenv("FSIM_KERNEL", "dense")
	var out, errOut fakeWriter
	if code := run([]string{"--workload", "grade"}, &out, &errOut); code == 0 || out.n > 0 {
		t.Errorf("run with FSIM_KERNEL set: exit %d, %d bytes of output", code, out.n)
	}
}

type fakeWriter struct{ n int }

func (w *fakeWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
