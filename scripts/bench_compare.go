// Command bench_compare diffs a freshly measured benchmark file against a
// committed BENCH_*.json baseline and gates on the deterministic work
// counters. It is the teeth behind `make bench-check` and the advisory
// bench-regression CI job.
//
// The comparer is chosen by the baseline's schema field:
//
//	wbist-bench-pipeline/v1  BENCH_pipeline.json (make bench-json)
//	wbist-bench-kernel/v2    BENCH_kernel.json   (make bench-kernel)
//
// Only circuits (kernel file: circuit × model × kernel rows) present in both
// files are compared, so a cheap smoke run (-circuits s298) can be checked
// against the full committed trajectory.
//
// Gating policy: the pipeline is deterministic for a fixed seed, so the
// work counters must match the baseline EXACTLY —
//
//   - effective gate evaluations (fsim.gate_evals + fsim.gates_skipped),
//     which is kernel-invariant by construction: the event kernel counts
//     every avoided evaluation as skipped;
//   - fsim.vectors, fsim.group_passes, fsim.faults_dropped,
//     core.candidates_scored, podem.backtracks, which are identical for any
//     worker count and any kernel (outcomes are bit-identical).
//
// For the kernel file, each circuit × model's faults, groups, detected,
// vectors and dense gate_evals must match the baseline exactly, and within
// the fresh file every kernel's vectors, detected and effective evals must
// equal dense's. fsim.cone_hits, fsim.events_scheduled and the other kernel
// internals (slab batch counters, allocations) are only reported.
// Wall-clock is never gated — baselines are recorded on other machines — but
// ratios outside -wall-tol are listed so a human can react. When
// $GITHUB_STEP_SUMMARY is set (or -summary given) a markdown table of every
// comparison is appended there.
//
// Exit status: 1 on any exact-counter mismatch (or I/O/schema error), 0
// otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

type phaseStats struct {
	Span     string           `json:"span"`
	WallNS   int64            `json:"wall_ns"`
	Counters map[string]int64 `json:"counters"`
}

type pipelineCircuit struct {
	Circuit  string           `json:"circuit"`
	WallNS   int64            `json:"wall_ns"`
	Phases   []phaseStats     `json:"phases"`
	Counters map[string]int64 `json:"counters"`
}

// kernelRow is one circuit × model × kernel row of a kernel file.
type kernelRow struct {
	Circuit   string `json:"circuit"`
	Model     string `json:"model"`
	Kernel    string `json:"kernel"`
	Faults    int    `json:"faults"`
	Groups    int    `json:"groups"`
	WallNS    int64  `json:"wall_ns"`
	GateEvals int64  `json:"gate_evals"`
	Vectors   int64  `json:"vectors"`
	Detected  int    `json:"detected"`
	Event     struct {
		EventsScheduled int64 `json:"events_scheduled"`
		GatesSkipped    int64 `json:"gates_skipped"`
		ConeHits        int64 `json:"cone_hits"`
		SweepFallbacks  int64 `json:"sweep_fallbacks"`
	} `json:"event"`
	Slab struct {
		SlabPasses   int64 `json:"slab_passes"`
		LanesIdle    int64 `json:"lanes_idle"`
		AllocsPerRun int64 `json:"allocs_per_run"`
	} `json:"slab"`
}

// comparers maps each baseline schema to its comparer.
var comparers = map[string]func(basePath, freshPath string, tol float64) ([]row, error){
	"wbist-bench-pipeline/v1": comparePipeline,
	"wbist-bench-kernel/v2":   compareKernel,
}

// exactCounters are the gated per-circuit totals (beyond effective evals).
var exactCounters = []string{
	"fsim.vectors",
	"fsim.group_passes",
	"fsim.faults_dropped",
	"core.candidates_scored",
	"podem.backtracks",
}

// row is one comparison line, rendered to stdout and the markdown summary.
type row struct {
	circuit string
	metric  string
	base    string
	fresh   string
	status  string // "ok", "FAIL", "info", "slow (Nx)", "fast (Nx)"
}

func main() {
	baseline := flag.String("baseline", "", "committed BENCH_*.json baseline (required)")
	fresh := flag.String("fresh", "", "freshly measured benchmark file (required)")
	wallTol := flag.Float64("wall-tol", 0.5, "advisory wall-clock tolerance (fractional, e.g. 0.5 = ±50%)")
	summary := flag.String("summary", os.Getenv("GITHUB_STEP_SUMMARY"), "append a markdown summary table to this file (default $GITHUB_STEP_SUMMARY)")
	flag.Parse()
	if *baseline == "" || *fresh == "" {
		fmt.Fprintln(os.Stderr, "bench_compare: -baseline and -fresh are required")
		os.Exit(1)
	}

	schema, rows, err := compare(*baseline, *fresh, *wallTol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench_compare: %v\n", err)
		os.Exit(1)
	}

	failed := render(os.Stdout, *baseline, *fresh, rows)
	if *summary != "" {
		if err := appendMarkdown(*summary, schema, *baseline, rows); err != nil {
			fmt.Fprintf(os.Stderr, "bench_compare: summary: %v\n", err)
		}
	}
	if failed > 0 {
		fmt.Printf("bench_compare: FAIL — %d deterministic counter(s) diverged from %s\n", failed, *baseline)
		os.Exit(1)
	}
	fmt.Printf("bench_compare: OK — counters match %s\n", *baseline)
}

// compare runs the comparer of the baseline's schema and returns that
// schema with the comparison rows.
func compare(basePath, freshPath string, tol float64) (string, []row, error) {
	schema, err := load(basePath, nil)
	if err != nil {
		return "", nil, err
	}
	cmp, ok := comparers[schema]
	if !ok {
		return schema, nil, fmt.Errorf("%s: unknown schema %q", basePath, schema)
	}
	rows, err := cmp(basePath, freshPath, tol)
	return schema, rows, err
}

// load decodes the benchmark file at path into v (skipped when nil) and
// returns its schema.
func load(path string, v any) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &head); err != nil {
		return "", fmt.Errorf("%s: %v", path, err)
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			return "", fmt.Errorf("%s: %v", path, err)
		}
	}
	return head.Schema, nil
}

// loadPair decodes a baseline and a fresh file, both of which must carry
// schema.
func loadPair(basePath, freshPath, schema string, base, fresh any) error {
	for _, f := range []struct {
		path string
		v    any
	}{{basePath, base}, {freshPath, fresh}} {
		got, err := load(f.path, f.v)
		if err != nil {
			return err
		}
		if got != schema {
			return fmt.Errorf("%s: schema %q, want %q", f.path, got, schema)
		}
	}
	return nil
}

// exact emits a gated exact-match row.
func exact(rows []row, circuit, metric string, base, fresh int64) []row {
	st := "ok"
	if base != fresh {
		st = "FAIL"
	}
	return append(rows, row{circuit, metric, fmt.Sprint(base), fmt.Sprint(fresh), st})
}

// info emits a non-gated informational row.
func info(rows []row, circuit, metric string, base, fresh int64) []row {
	return append(rows, row{circuit, metric, fmt.Sprint(base), fmt.Sprint(fresh), "info"})
}

// wall emits an advisory wall-clock row flagged outside ±tol. A zero or
// missing baseline entry carries no timing signal: the ratio would be
// Inf/NaN, so the row is marked "info" with a "-" baseline instead of
// silently passing as "ok".
func wall(rows []row, circuit, metric string, base, fresh int64, tol float64) []row {
	if base <= 0 {
		return append(rows, row{circuit, metric, "-",
			fmt.Sprintf("%.1fms", float64(fresh)/1e6), "info"})
	}
	st := "ok"
	switch r := float64(fresh) / float64(base); {
	case r > 1+tol:
		st = fmt.Sprintf("slow (%.2fx)", r)
	case r < 1/(1+tol):
		st = fmt.Sprintf("fast (%.2fx)", r)
	}
	return append(rows, row{circuit, metric,
		fmt.Sprintf("%.1fms", float64(base)/1e6),
		fmt.Sprintf("%.1fms", float64(fresh)/1e6), st})
}

func comparePipeline(basePath, freshPath string, tol float64) ([]row, error) {
	var base, fresh struct {
		Circuits []pipelineCircuit `json:"circuits"`
	}
	if err := loadPair(basePath, freshPath, "wbist-bench-pipeline/v1", &base, &fresh); err != nil {
		return nil, err
	}
	byName := map[string]pipelineCircuit{}
	for _, c := range base.Circuits {
		byName[c.Circuit] = c
	}
	var rows []row
	matched := 0
	for _, f := range fresh.Circuits {
		b, ok := byName[f.Circuit]
		if !ok {
			rows = append(rows, row{f.Circuit, "(not in baseline)", "-", "-", "info"})
			continue
		}
		matched++
		rows = exact(rows, f.Circuit, "effective_evals",
			b.Counters["fsim.gate_evals"]+b.Counters["fsim.gates_skipped"],
			f.Counters["fsim.gate_evals"]+f.Counters["fsim.gates_skipped"])
		for _, k := range exactCounters {
			rows = exact(rows, f.Circuit, k, b.Counters[k], f.Counters[k])
		}
		rows = info(rows, f.Circuit, "fsim.events_scheduled",
			b.Counters["fsim.events_scheduled"], f.Counters["fsim.events_scheduled"])
		rows = info(rows, f.Circuit, "fsim.cone_hits",
			b.Counters["fsim.cone_hits"], f.Counters["fsim.cone_hits"])
		rows = wall(rows, f.Circuit, "wall", b.WallNS, f.WallNS, tol)
		for _, fp := range f.Phases {
			for _, bp := range b.Phases {
				if bp.Span == fp.Span {
					rows = wall(rows, f.Circuit, "wall "+fp.Span, bp.WallNS, fp.WallNS, tol)
					break
				}
			}
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("no circuits of %s appear in %s", freshPath, basePath)
	}
	return rows, nil
}

// compareKernel gates a kernel file: per circuit × model, the dense row's
// deterministic counters against the baseline, and every other kernel's
// vectors, detected and effective evals against the fresh dense row (the
// kernels are bit-identical, and the event kernel counts every avoided
// evaluation as skipped). The fresh-file invariants are gated even on rows
// the baseline lacks.
func compareKernel(basePath, freshPath string, tol float64) ([]row, error) {
	var base, fresh struct {
		Rows []kernelRow `json:"rows"`
	}
	if err := loadPair(basePath, freshPath, "wbist-bench-kernel/v2", &base, &fresh); err != nil {
		return nil, err
	}
	key := func(r kernelRow, kernel string) string { return r.Circuit + "/" + r.Model + "/" + kernel }
	baseRows, dense := map[string]kernelRow{}, map[string]kernelRow{}
	for _, r := range base.Rows {
		baseRows[key(r, r.Kernel)] = r
	}
	for _, r := range fresh.Rows {
		if r.Kernel == "dense" {
			dense[key(r, "dense")] = r
		}
	}
	var rows []row
	matched := 0
	for _, f := range fresh.Rows {
		m := f.Model + "." + f.Kernel
		d, ok := dense[key(f, "dense")]
		if !ok {
			return nil, fmt.Errorf("%s: %s %s has no dense row", freshPath, f.Circuit, m)
		}
		if f.Kernel != "dense" {
			rows = exact(rows, f.Circuit, m+".vectors (vs dense)", d.Vectors, f.Vectors)
			rows = exact(rows, f.Circuit, m+".detected (vs dense)", int64(d.Detected), int64(f.Detected))
			rows = exact(rows, f.Circuit, m+".effective_evals (vs dense)",
				d.GateEvals, f.GateEvals+f.Event.GatesSkipped)
		}
		b, ok := baseRows[key(f, f.Kernel)]
		if !ok {
			rows = append(rows, row{f.Circuit, m + " (not in baseline)", "-", "-", "info"})
			continue
		}
		matched++
		switch f.Kernel {
		case "dense":
			rows = exact(rows, f.Circuit, f.Model+".faults", int64(b.Faults), int64(f.Faults))
			rows = exact(rows, f.Circuit, f.Model+".groups", int64(b.Groups), int64(f.Groups))
			rows = exact(rows, f.Circuit, f.Model+".detected", int64(b.Detected), int64(f.Detected))
			rows = exact(rows, f.Circuit, f.Model+".vectors", b.Vectors, f.Vectors)
			rows = exact(rows, f.Circuit, m+".gate_evals", b.GateEvals, f.GateEvals)
		case "event":
			rows = info(rows, f.Circuit, m+".gate_evals", b.GateEvals, f.GateEvals)
			rows = info(rows, f.Circuit, m+".events_scheduled", b.Event.EventsScheduled, f.Event.EventsScheduled)
			rows = info(rows, f.Circuit, m+".cone_hits", b.Event.ConeHits, f.Event.ConeHits)
			rows = info(rows, f.Circuit, m+".sweep_fallbacks", b.Event.SweepFallbacks, f.Event.SweepFallbacks)
		case "slab":
			rows = info(rows, f.Circuit, m+".slab_passes", b.Slab.SlabPasses, f.Slab.SlabPasses)
			rows = info(rows, f.Circuit, m+".lanes_idle", b.Slab.LanesIdle, f.Slab.LanesIdle)
			rows = info(rows, f.Circuit, m+".allocs_per_run", b.Slab.AllocsPerRun, f.Slab.AllocsPerRun)
		}
		rows = wall(rows, f.Circuit, m+".wall", b.WallNS, f.WallNS, tol)
	}
	if matched == 0 {
		return nil, fmt.Errorf("no rows of %s appear in %s", freshPath, basePath)
	}
	return rows, nil
}

// render prints the comparison table and returns the number of FAIL rows.
func render(w io.Writer, basePath, freshPath string, rows []row) int {
	fmt.Fprintf(w, "bench_compare: %s vs fresh %s\n", basePath, freshPath)
	failed := 0
	for _, r := range rows {
		marker := " "
		switch {
		case r.status == "FAIL":
			failed++
			marker = "!"
		case strings.HasPrefix(r.status, "slow"), strings.HasPrefix(r.status, "fast"):
			marker = "~"
		}
		fmt.Fprintf(w, "%s %-8s %-44s base=%-14s fresh=%-14s %s\n",
			marker, r.circuit, r.metric, r.base, r.fresh, r.status)
	}
	return failed
}

// appendMarkdown appends a GitHub job-summary table headed by the baseline's
// schema. Only rows a human should look at (failures and wall-clock
// outliers) are listed in full; ok rows are summarized by count.
func appendMarkdown(path, schema, basePath string, rows []row) error {
	var b strings.Builder
	ok := 0
	var flagged []row
	for _, r := range rows {
		switch {
		case r.status == "FAIL",
			strings.HasPrefix(r.status, "slow"),
			strings.HasPrefix(r.status, "fast"):
			flagged = append(flagged, r)
		default:
			ok++
		}
	}
	fmt.Fprintf(&b, "### bench-check (%s) vs `%s`\n\n", schema, basePath)
	fmt.Fprintf(&b, "%d row(s) ok, %d flagged.\n\n", ok, len(flagged))
	if len(flagged) > 0 {
		fmt.Fprintf(&b, "| circuit | metric | baseline | fresh | status |\n")
		fmt.Fprintf(&b, "|---|---|---|---|---|\n")
		for _, r := range flagged {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
				r.circuit, r.metric, r.base, r.fresh, r.status)
		}
		fmt.Fprintf(&b, "\n")
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(f, b.String()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
