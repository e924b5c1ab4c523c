package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const pipelineBase = `{
  "schema": "wbist-bench-pipeline/v1",
  "circuits": [
    {"circuit": "s298", "wall_ns": 1000000000,
     "phases": [{"span": "pipeline/atpg", "wall_ns": 800000000}],
     "counters": {"fsim.gate_evals": 900, "fsim.gates_skipped": 100,
                  "fsim.vectors": 50, "fsim.group_passes": 4,
                  "fsim.faults_dropped": 30, "core.candidates_scored": 7,
                  "podem.backtracks": 2, "fsim.events_scheduled": 60}},
    {"circuit": "s344", "wall_ns": 5, "counters": {}}
  ]
}`

func TestComparePipelineExactAndAdvisory(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", pipelineBase)
	// Fresh: same effective evals with a different kernel split, one exact
	// counter diverged, wall 3x slower.
	fresh := writeFile(t, dir, "fresh.json", `{
  "schema": "wbist-bench-pipeline/v1",
  "circuits": [
    {"circuit": "s298", "wall_ns": 3000000000,
     "phases": [{"span": "pipeline/atpg", "wall_ns": 800000000}],
     "counters": {"fsim.gate_evals": 1000, "fsim.gates_skipped": 0,
                  "fsim.vectors": 51, "fsim.group_passes": 4,
                  "fsim.faults_dropped": 30, "core.candidates_scored": 7,
                  "podem.backtracks": 2}},
    {"circuit": "s1488", "wall_ns": 5, "counters": {}}
  ]
}`)
	rows, err := comparePipeline(base, fresh, 0.5)
	if err != nil {
		t.Fatalf("comparePipeline: %v", err)
	}
	byMetric := map[string]row{}
	for _, r := range rows {
		byMetric[r.circuit+"/"+r.metric] = r
	}
	if r := byMetric["s298/effective_evals"]; r.status != "ok" || r.base != "1000" || r.fresh != "1000" {
		t.Errorf("effective_evals row = %+v", r)
	}
	if r := byMetric["s298/fsim.vectors"]; r.status != "FAIL" {
		t.Errorf("diverged vectors row = %+v", r)
	}
	if r := byMetric["s298/wall"]; !strings.HasPrefix(r.status, "slow") {
		t.Errorf("3x wall row = %+v", r)
	}
	if r := byMetric["s298/wall pipeline/atpg"]; r.status != "ok" {
		t.Errorf("matched phase wall row = %+v", r)
	}
	if r := byMetric["s298/fsim.events_scheduled"]; r.status != "info" {
		t.Errorf("kernel-internal row gated: %+v", r)
	}
	if r := byMetric["s1488/(not in baseline)"]; r.status != "info" {
		t.Errorf("unknown circuit row = %+v", r)
	}
	var buf bytes.Buffer
	if failed := render(&buf, base, fresh, rows); failed != 1 {
		t.Errorf("render counted %d failures, want 1:\n%s", failed, buf.String())
	}
	if !strings.Contains(buf.String(), "! s298") {
		t.Errorf("render output lacks failure marker:\n%s", buf.String())
	}
}

func TestComparePipelineNoOverlap(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", pipelineBase)
	fresh := writeFile(t, dir, "fresh.json",
		`{"schema": "wbist-bench-pipeline/v1", "circuits": [{"circuit": "zz", "counters": {}}]}`)
	if _, err := comparePipeline(base, fresh, 0.5); err == nil {
		t.Error("no-overlap compare did not error")
	}
}

func TestComparePipelineSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", `{"schema": "wbist-bench-kernel/v1", "circuits": []}`)
	if _, err := comparePipeline(base, base, 0.5); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch err = %v", err)
	}
	if _, err := comparePipeline(filepath.Join(dir, "missing.json"), base, 0.5); err == nil {
		t.Error("missing file did not error")
	}
	bad := writeFile(t, dir, "bad.json", "{oops")
	if _, err := comparePipeline(bad, bad, 0.5); err == nil {
		t.Error("bad JSON did not error")
	}
}

func TestAppendMarkdown(t *testing.T) {
	dir := t.TempDir()
	sum := filepath.Join(dir, "summary.md")
	rows := []row{
		{"s298", "fsim.vectors", "50", "51", "FAIL"},
		{"s298", "wall", "1000.0ms", "3000.0ms", "slow"},
		{"s298", "effective_evals", "1000", "1000", "ok"},
		{"s298", "fsim.cone_hits", "0", "7", "info"},
	}
	if err := appendMarkdown(sum, "wbist-bench-pipeline/v1", "BENCH_pipeline.json", rows); err != nil {
		t.Fatalf("appendMarkdown: %v", err)
	}
	// Appends, never truncates.
	if err := appendMarkdown(sum, "wbist-bench-pipeline/v1", "BENCH_pipeline.json", rows[2:]); err != nil {
		t.Fatalf("appendMarkdown (second): %v", err)
	}
	b, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	if strings.Count(out, "### bench-check (wbist-bench-pipeline/v1)") != 2 {
		t.Errorf("summary does not append:\n%s", out)
	}
	if !strings.Contains(out, "| s298 | fsim.vectors | 50 | 51 | FAIL |") ||
		!strings.Contains(out, "| s298 | wall |") {
		t.Errorf("flagged rows missing from table:\n%s", out)
	}
	if strings.Contains(out, "effective_evals") || strings.Contains(out, "cone_hits") {
		t.Errorf("ok/info rows leaked into the table:\n%s", out)
	}
	if !strings.Contains(out, "2 row(s) ok, 2 flagged.") {
		t.Errorf("summary counts wrong:\n%s", out)
	}
	// An unwritable summary path is reported, not swallowed.
	if err := appendMarkdown(dir, "wbist-bench-pipeline/v1", "BENCH_pipeline.json", rows); err == nil {
		t.Error("appendMarkdown to a directory did not error")
	}
}

func TestWallStatus(t *testing.T) {
	for _, tc := range []struct {
		base, fresh int64
		want        string
	}{
		{1000, 1000, "ok"},
		{1000, 1499, "ok"},
		{1000, 1501, "slow (1.50x)"},
		{1000, 600, "fast (0.60x)"},
		{0, 5, "info"},  // zero baseline: no ratio, advisory row
		{-1, 5, "info"}, // negative (corrupt) baseline: likewise
	} {
		rows := wall(nil, "c", "wall", tc.base, tc.fresh, 0.5)
		if got := rows[0].status; got != tc.want {
			t.Errorf("wall(%d, %d) = %q, want %q", tc.base, tc.fresh, got, tc.want)
		}
	}
	// The zero-baseline row renders "-" rather than a fake "0.0ms".
	rows := wall(nil, "c", "wall", 0, 5e6, 0.5)
	if rows[0].base != "-" || rows[0].fresh != "5.0ms" {
		t.Errorf("zero-baseline row = %+v", rows[0])
	}
}

// kernelBaseRows is a kernel baseline: s298 stuck-at on all three kernels
// and transition on dense and event.
func kernelBaseRows() []kernelRow {
	r := []kernelRow{
		{Circuit: "s298", Model: "stuck-at", Kernel: "dense", Faults: 496, Groups: 8, WallNS: 14e6, GateEvals: 952000, Vectors: 8000, Detected: 370},
		{Circuit: "s298", Model: "stuck-at", Kernel: "event", Faults: 496, Groups: 8, WallNS: 13e6, GateEvals: 900000, Vectors: 8000, Detected: 370},
		{Circuit: "s298", Model: "stuck-at", Kernel: "slab", Faults: 496, Groups: 8, WallNS: 7e6, GateEvals: 952000, Vectors: 8000, Detected: 370},
		{Circuit: "s298", Model: "transition", Kernel: "dense", Faults: 272, Groups: 5, WallNS: 15e6, GateEvals: 595000, Vectors: 5000, Detected: 197},
		{Circuit: "s298", Model: "transition", Kernel: "event", Faults: 272, Groups: 5, WallNS: 15e6, GateEvals: 595000, Vectors: 5000, Detected: 197},
	}
	r[1].Event.GatesSkipped, r[1].Event.EventsScheduled = 52000, 900000
	r[2].Slab.SlabPasses, r[2].Slab.AllocsPerRun = 1, 7
	return r
}

func kernelFile(t *testing.T, rows []kernelRow) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Schema string      `json:"schema"`
		Rows   []kernelRow `json:"rows"`
	}{"wbist-bench-kernel/v2", rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// kernelCase is one compare input over kernel files.
type kernelCase struct {
	name   string
	base   string // baseline content ("" = kernelBaseRows)
	fresh  string // fresh content ("" = kernelBaseRows after mutate)
	mutate func(r []kernelRow) []kernelRow
	// wantFail is the one FAIL row (circuit/metric); wantStatus maps rows
	// to a status prefix; wantErr is a substring of the expected error.
	wantFail   string
	wantStatus map[string]string
	wantErr    string
}

// runKernelCases runs compare, which dispatches on the baseline schema, on
// each case and checks its FAIL rows, statuses or error.
func runKernelCases(t *testing.T, cases []kernelCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.base == "" {
				tc.base = kernelFile(t, kernelBaseRows())
			}
			if tc.fresh == "" {
				rows := kernelBaseRows()
				if tc.mutate != nil {
					rows = tc.mutate(rows)
				}
				tc.fresh = kernelFile(t, rows)
			}
			base := writeFile(t, dir, "base.json", tc.base)
			fresh := writeFile(t, dir, "fresh.json", tc.fresh)
			schema, rows, err := compare(base, fresh, 0.5)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("compare: %v", err)
			}
			if !strings.Contains(tc.base, schema) {
				t.Errorf("dispatched schema %q", schema)
			}
			byMetric := map[string]row{}
			var fails []string
			for _, r := range rows {
				byMetric[r.circuit+"/"+r.metric] = r
				if r.status == "FAIL" {
					fails = append(fails, r.circuit+"/"+r.metric)
				}
			}
			if got := strings.Join(fails, ","); got != tc.wantFail {
				t.Errorf("FAIL rows = %q, want %q", got, tc.wantFail)
			}
			for m, st := range tc.wantStatus {
				if r, ok := byMetric[m]; !ok || !strings.HasPrefix(r.status, st) {
					t.Errorf("%s row = %+v, want status %q", m, r, st)
				}
			}
			var buf bytes.Buffer
			if failed := render(&buf, base, fresh, rows); failed != len(fails) {
				t.Errorf("render counted %d failures, want %d", failed, len(fails))
			}
		})
	}
}

// TestCompareKernel covers the healthy kernel file, baseline drift on the
// stuck-at counters, the event effective-evals check, schema mismatch, no
// overlap, and unknown or pipeline baseline schemas.
func TestCompareKernel(t *testing.T) {
	runKernelCases(t, []kernelCase{
		{name: "healthy", mutate: func(r []kernelRow) []kernelRow {
			// A different event split with the same effective evals, a 3x
			// slower dense wall, and a circuit the baseline has never seen.
			r[1].GateEvals, r[1].Event.GatesSkipped = 800000, 152000
			r[0].WallNS *= 3
			return append(r,
				kernelRow{Circuit: "zz9", Model: "stuck-at", Kernel: "dense", GateEvals: 10, Vectors: 4},
				kernelRow{Circuit: "zz9", Model: "stuck-at", Kernel: "slab", GateEvals: 10, Vectors: 4})
		}, wantStatus: map[string]string{
			"s298/stuck-at.faults":                           "ok",
			"s298/stuck-at.dense.gate_evals":                 "ok",
			"s298/stuck-at.event.effective_evals (vs dense)": "ok",
			"s298/stuck-at.event.gate_evals":                 "info",
			"s298/stuck-at.slab.allocs_per_run":              "info",
			"s298/stuck-at.dense.wall":                       "slow",
			"s298/transition.detected":                       "ok",
			"zz9/stuck-at.slab.vectors (vs dense)":           "ok",
			"zz9/stuck-at.slab (not in baseline)":            "info",
		}},
		{name: "faults drift", mutate: func(r []kernelRow) []kernelRow { r[0].Faults++; return r },
			wantFail: "s298/stuck-at.faults"},
		{name: "detected drift", mutate: func(r []kernelRow) []kernelRow {
			for i := range r[:3] {
				r[i].Detected++
			}
			return r
		}, wantFail: "s298/stuck-at.detected"},
		{name: "dense evals drift", mutate: func(r []kernelRow) []kernelRow {
			for i := range r[:3] {
				r[i].GateEvals++
			}
			return r
		}, wantFail: "s298/stuck-at.dense.gate_evals"},
		{name: "event evals mismatch", mutate: func(r []kernelRow) []kernelRow { r[1].Event.GatesSkipped--; return r },
			wantFail: "s298/stuck-at.event.effective_evals (vs dense)"},
		{name: "no dense row", mutate: func(r []kernelRow) []kernelRow { return r[1:] },
			wantErr: "no dense row"},
		{name: "no overlap", mutate: func(r []kernelRow) []kernelRow {
			return []kernelRow{{Circuit: "zz", Model: "stuck-at", Kernel: "dense"}}
		}, wantErr: "no rows"},
		{name: "fresh schema mismatch", fresh: `{"schema": "wbist-bench-pipeline/v1", "circuits": []}`,
			wantErr: `schema "wbist-bench-pipeline/v1", want "wbist-bench-kernel/v2"`},
		{name: "retired baseline schema", base: `{"schema": "wbist-bench-kernel/v1", "circuits": []}`,
			wantErr: `unknown schema "wbist-bench-kernel/v1"`},
		{name: "pipeline dispatch", base: pipelineBase, fresh: pipelineBase,
			wantStatus: map[string]string{"s298/effective_evals": "ok"}},
	})
}

// TestCompareSlab covers the slab row checks: slab detections and gate
// evals must equal dense's, and the stuck-at group count is gated.
func TestCompareSlab(t *testing.T) {
	runKernelCases(t, []kernelCase{
		{name: "slab detected mismatch", mutate: func(r []kernelRow) []kernelRow { r[2].Detected--; return r },
			wantFail: "s298/stuck-at.slab.detected (vs dense)"},
		{name: "slab evals mismatch", mutate: func(r []kernelRow) []kernelRow { r[2].GateEvals--; return r },
			wantFail: "s298/stuck-at.slab.effective_evals (vs dense)"},
		{name: "stuck-at groups drift", mutate: func(r []kernelRow) []kernelRow {
			for i := range r[:3] {
				r[i].Groups++
			}
			return r
		}, wantFail: "s298/stuck-at.groups"},
	})
}

// TestCompareModel covers the per-model checks: baseline drift on a model's
// groups and vectors, and event vectors against dense on transition and on a
// circuit the baseline has never seen.
func TestCompareModel(t *testing.T) {
	runKernelCases(t, []kernelCase{
		{name: "groups drift", mutate: func(r []kernelRow) []kernelRow { r[3].Groups++; return r },
			wantFail: "s298/transition.groups"},
		{name: "vectors drift", mutate: func(r []kernelRow) []kernelRow {
			r[3].Vectors++
			r[4].Vectors++
			return r
		}, wantFail: "s298/transition.vectors"},
		{name: "event vectors mismatch", mutate: func(r []kernelRow) []kernelRow { r[4].Vectors--; return r },
			wantFail: "s298/transition.event.vectors (vs dense)"},
		{name: "mismatch on a circuit not in the baseline", mutate: func(r []kernelRow) []kernelRow {
			return append(r,
				kernelRow{Circuit: "zz9", Model: "bridge", Kernel: "dense", GateEvals: 10, Vectors: 4},
				kernelRow{Circuit: "zz9", Model: "bridge", Kernel: "event", GateEvals: 10, Vectors: 3})
		}, wantFail: "zz9/bridge.event.vectors (vs dense)"},
	})
}
