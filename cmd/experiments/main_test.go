package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// setFlags points the output-file and filter flags at test-owned values and
// restores them afterwards; the bench sections read these package globals
// instead of taking parameters.
func setFlags(t *testing.T, circuits string) (kernelJSON, benchJSON string) {
	t.Helper()
	dir := t.TempDir()
	kernelJSON = filepath.Join(dir, "kernel.json")
	benchJSON = filepath.Join(dir, "bench.json")
	oldC, oldK, oldB := *flagCircuits, *flagKernelJSON, *flagBenchJSON
	*flagCircuits, *flagKernelJSON, *flagBenchJSON = circuits, kernelJSON, benchJSON
	t.Cleanup(func() {
		*flagCircuits, *flagKernelJSON, *flagBenchJSON = oldC, oldK, oldB
	})
	return
}

func decodeBench(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// runKernelBench runs the kernelbench section on s27 and s298 (the smallest
// circuit whose workload detects faults under every model) with a short
// workload and returns the written rows after checking what every row must
// hold: schema, one row per circuit × model × kernel, plausible counts, and
// the cross-kernel invariants bench_compare gates on.
func runKernelBench(t *testing.T) (rows []kernelRow, dense map[string]kernelRow) {
	t.Helper()
	kernelJSON, _ := setFlags(t, "s27,s298")
	if err := kernelBench(wbist.Config{LG: 120, Seed: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Schema string      `json:"schema"`
		Rows   []kernelRow `json:"rows"`
	}
	decodeBench(t, kernelJSON, &out)
	if out.Schema != "wbist-bench-kernel/v2" {
		t.Fatalf("schema = %q", out.Schema)
	}
	var got []string
	dense = map[string]kernelRow{}
	for _, r := range out.Rows {
		got = append(got, r.Circuit+"/"+r.Model+"/"+r.Kernel)
		if r.Kernel == "dense" {
			dense[r.Circuit+"/"+r.Model] = r
		}
	}
	var want []string
	for _, c := range []string{"s27", "s298"} {
		want = append(want, c+"/stuck-at/dense", c+"/stuck-at/event", c+"/stuck-at/slab",
			c+"/transition/dense", c+"/transition/event", c+"/bridge/dense", c+"/bridge/event")
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for _, r := range out.Rows {
		name := r.Circuit + "/" + r.Model + "/" + r.Kernel
		d := dense[r.Circuit+"/"+r.Model]
		if r.Faults <= 0 || r.Groups != (r.Faults+62)/63 || r.Vectors <= 0 || r.GateEvals <= 0 || r.WallNS <= 0 {
			t.Fatalf("%s: implausible row %+v", name, r)
		}
		if r.Circuit == "s298" && (r.Detected <= 0 || r.Detected > r.Faults) {
			t.Fatalf("%s: detected %d of %d", name, r.Detected, r.Faults)
		}
		// Bit-identical kernels apply the same vectors and detect the same
		// faults; effective evals (evaluated + provably skipped) match dense.
		skipped := int64(0)
		if r.Event != nil {
			skipped = r.Event.GatesSkipped
		}
		if r.Vectors != d.Vectors || r.Detected != d.Detected || r.GateEvals+skipped != d.GateEvals {
			t.Fatalf("%s: vectors %d, detected %d, evals %d+%d; dense %d, %d, %d",
				name, r.Vectors, r.Detected, r.GateEvals, skipped, d.Vectors, d.Detected, d.GateEvals)
		}
	}
	return out.Rows, dense
}

// TestKernelBench checks the kernelbench file's row layout and cross-kernel
// invariants (runKernelBench) and the dense and event ratio fields.
func TestKernelBench(t *testing.T) {
	rows, _ := runKernelBench(t)
	for _, r := range rows {
		name := r.Circuit + "/" + r.Model + "/" + r.Kernel
		switch r.Kernel {
		case "dense":
			if r.OverheadVsStuckAt <= 0 {
				t.Fatalf("%s: overhead_vs_stuck_at = %v", name, r.OverheadVsStuckAt)
			}
		case "event":
			if r.Event == nil || r.Event.EvalReduction <= 0 {
				t.Fatalf("%s: event stats %+v", name, r.Event)
			}
		}
	}
}

// TestSlabBench checks the slab rows of the kernelbench file: stuck-at only,
// dense-equal vectors, detections and gate evals, a lane count within the
// group count, and a warm arena that allocates less than a fresh simulator.
func TestSlabBench(t *testing.T) {
	rows, dense := runKernelBench(t)
	slabs := 0
	for _, r := range rows {
		if r.Kernel != "slab" {
			if r.Slab != nil {
				t.Fatalf("%s/%s/%s: slab stats on a non-slab row", r.Circuit, r.Model, r.Kernel)
			}
			continue
		}
		slabs++
		name := r.Circuit + "/" + r.Model + "/slab"
		d := dense[r.Circuit+"/"+r.Model]
		if r.Model != "stuck-at" {
			t.Fatalf("%s: slab row on a model that runs dense", name)
		}
		if r.GateEvals != d.GateEvals || r.Vectors != d.Vectors || r.Detected != d.Detected {
			t.Fatalf("%s: evals %d, vectors %d, detected %d; dense %d, %d, %d",
				name, r.GateEvals, r.Vectors, r.Detected, d.GateEvals, d.Vectors, d.Detected)
		}
		st := r.Slab
		if st == nil || st.Lanes <= 0 || st.Lanes > r.Groups || st.SlabPasses <= 0 || st.SpeedupVsDense <= 0 {
			t.Fatalf("%s: slab stats %+v", name, st)
		}
		// The warm arena must beat a fresh simulator's first-run build.
		if st.AllocsPerRun >= st.ColdAllocsPerRun || st.AllocReduction < 1 {
			t.Fatalf("%s: warm allocs %d, cold %d, reduction %v",
				name, st.AllocsPerRun, st.ColdAllocsPerRun, st.AllocReduction)
		}
	}
	if slabs != 2 {
		t.Fatalf("%d slab rows, want 2", slabs)
	}
}

// TestModelBench checks the per-model rows of the kernelbench file: every
// circuit has a dense and an event row per fault model, detections stay
// within the universe, event applies dense's vectors, and the dense cost
// overhead is anchored at 1 on stuck-at.
func TestModelBench(t *testing.T) {
	rows, dense := runKernelBench(t)
	for _, c := range []string{"s27", "s298"} {
		for _, m := range []string{"stuck-at", "transition", "bridge"} {
			if _, ok := dense[c+"/"+m]; !ok {
				t.Fatalf("%s: no dense row for %s", c, m)
			}
		}
	}
	for _, r := range rows {
		name := r.Circuit + "/" + r.Model + "/" + r.Kernel
		d := dense[r.Circuit+"/"+r.Model]
		if r.Detected < 0 || r.Detected > r.Faults || r.Faults != d.Faults || r.Groups != d.Groups {
			t.Fatalf("%s: detected %d of %d faults, %d groups; dense %d faults, %d groups",
				name, r.Detected, r.Faults, r.Groups, d.Faults, d.Groups)
		}
		if r.Kernel == "event" && r.Vectors != d.Vectors {
			t.Fatalf("%s: vectors %d, dense %d", name, r.Vectors, d.Vectors)
		}
		if r.Kernel == "dense" && r.Model == "stuck-at" && r.OverheadVsStuckAt != 1 {
			t.Fatalf("%s: overhead_vs_stuck_at = %v, want 1", name, r.OverheadVsStuckAt)
		}
	}
}

// TestBenchJSON runs the pipeline bench section on s298 (the CI bench-smoke
// circuit) and checks the written baseline row.
func TestBenchJSON(t *testing.T) {
	_, benchPath := setFlags(t, "s298")
	cfg := wbist.Config{Seed: 1, Workers: 2}
	if err := benchJSON(cfg); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Schema   string `json:"schema"`
		Circuits []struct {
			Circuit  string           `json:"circuit"`
			WallNS   int64            `json:"wall_ns"`
			Counters map[string]int64 `json:"counters"`
		} `json:"circuits"`
	}
	decodeBench(t, benchPath, &out)
	if out.Schema != "wbist-bench-pipeline/v1" {
		t.Fatalf("schema = %q", out.Schema)
	}
	if len(out.Circuits) != 1 || out.Circuits[0].Circuit != "s298" {
		t.Fatalf("circuits = %+v, want exactly s298", out.Circuits)
	}
	cb := out.Circuits[0]
	if cb.WallNS <= 0 || cb.Counters["fsim.gate_evals"] <= 0 || cb.Counters["fsim.vectors"] <= 0 {
		t.Fatalf("implausible s298 row: %+v", cb)
	}
}

// TestWeightedWorkload checks the shared bench stimulus: deterministic for a
// seed, requested length, and binary vectors only.
func TestWeightedWorkload(t *testing.T) {
	a := weightedWorkload(5, 1, 50)
	b := weightedWorkload(5, 1, 50)
	if a.Len() != 50 || b.Len() != 50 {
		t.Fatalf("lengths %d, %d, want 50", a.Len(), b.Len())
	}
	for u := 0; u < a.Len(); u++ {
		for i := 0; i < 5; i++ {
			if a.At(u, i) != b.At(u, i) {
				t.Fatalf("workload not deterministic at u=%d i=%d", u, i)
			}
		}
	}
	if c := weightedWorkload(5, 2, 50); c.Len() != 50 {
		t.Fatalf("seed-2 length %d", c.Len())
	}
}

// TestModelCoverage runs the models section (full pipeline per fault model
// on s298 and s344) with a short generator window; it must render without
// error — the per-model numbers themselves are pinned by the golden tests.
func TestModelCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six full pipelines")
	}
	setFlags(t, "")
	if err := modelCoverage(wbist.Config{LG: 120, Seed: 1, Workers: 2}); err != nil {
		t.Fatal(err)
	}
}
