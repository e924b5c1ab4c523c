// Command perfbench is the repository benchmark. It runs one workload
// (compile, grade or serve) as a closed loop for a fixed time, checks every
// output it produces, and prints the metrics BENCHMARK.json names as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload grade --seed 3 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced rounds; with
// --trace 1 it runs one untraced and one traced round and prints the
// per-layer metrics (see README.md).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/fsim"
)

// workDir holds everything a run writes, relative to the checkout root.
const workDir = ".bench_build/perfbench"

// setupReps is how many times a run repeats its workload's set-up before
// the first round and after every round; setup_s is the median of them
// all. Set-ups take milliseconds, so the repetitions cost little, and
// spreading them over the run keeps one slow spell of the host from
// setting the median.
const setupReps = 25

// options are the settings one run passes to its workload.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workers int
}

// report is what a workload hands back: the metric values it measured, its
// deterministic work counts, the observed outputs (for pinning), and its
// operation tally. Its times are normalised to the speed reference (see
// ref.go), and so are the metrics the workload recorded with time or rate.
type report struct {
	gauge      gauge
	metrics    map[string]float64
	setupWalls []float64 // wall seconds of each set-up
	untraced   []float64 // wall seconds of each round
	traced     []float64
	factor     float64  // the run's normalisation factor
	spans      [][]span // the spans of each traced round
	counts     map[string]int64
	outputs    map[string]any
	attempted  int
	failed     int
	problems   []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, counts: map[string]int64{}, outputs: map[string]any{}}
}

// op records one operation: it fails if err is non-nil or any check
// reports a mismatch. It returns whether the operation succeeded.
func (r *report) op(name string, err error, checks ...error) bool {
	r.attempted++
	if err = errors.Join(append([]error{err}, checks...)...); err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", name, err))
		return false
	}
	return true
}

// sample holds what one round measured: timings and ratios in metrics,
// deterministic work counts (also mirrored into metrics) in counts.
type sample struct {
	metrics map[string]float64
	counts  map[string]int64
	// speed marks the metrics the host's speed scales: +1 for durations,
	// -1 for per-second rates.
	speed map[string]int
}

func newSample() *sample {
	return &sample{metrics: map[string]float64{}, counts: map[string]int64{}, speed: map[string]int{}}
}

// count records a deterministic work count, which must repeat exactly
// across rounds and runs.
func (s *sample) count(name string, v int64) {
	s.counts[name] = v
	s.metrics[name] = float64(v)
}

// time records a wall-clock duration, in the unit the name ends with.
func (s *sample) time(name string, v float64) {
	s.metrics[name] = v
	s.speed[name] = 1
}

// rate records a per-second rate.
func (s *sample) rate(name string, v float64) {
	s.metrics[name] = v
	s.speed[name] = -1
}

// normalise multiplies the round's durations by f and divides its rates
// by f.
func (s *sample) normalise(f float64) {
	for k, p := range s.speed {
		if p > 0 {
			s.metrics[k] *= f
		} else {
			s.metrics[k] /= f
		}
	}
}

// timeRound runs one round as a timed block and returns the wall time of
// its timed region and the allocation growth of the call in MB.
func (rep *report) timeRound(round roundFunc, t *tracer, s *sample) (wall, allocMB float64, err error) {
	var d time.Duration
	runtime.GC() // every round starts from a collected heap
	rep.gauge.around(func() {
		a0 := totalAlloc()
		d, err = round(t, s)
		allocMB = float64(totalAlloc()-a0) / 1e6
	})
	return d.Seconds(), allocMB, err
}

// roundFunc runs one round of a workload, traced when t is non-nil, and
// returns the wall time of its timed region.
type roundFunc func(t *tracer, s *sample) (time.Duration, error)

// setupFunc repeats a workload's set-up through timeSetup, discarding what
// it builds.
type setupFunc func() error

// drive runs a workload's rounds (at least one) for as long as the next one
// is expected to end within the run's time, and folds them into rep. An
// untraced run reports round_s (the median normalised time of a round) and
// alloc_mb plus the medians of each round's named breakdown. A traced run
// alternates an untraced and a traced round and reports the medians of the
// traced rounds' per-layer metrics and the tracing overhead. After every
// round it repeats the set-up, for setup_s.
func drive(o options, rep *report, round roundFunc, resetup setupFunc) error {
	var plain, traced []float64
	var allocs []float64
	var samples []*sample
	start := time.Now()
	for n := 0; n == 0 || time.Since(start)*time.Duration(n+1)/time.Duration(n) <= o.seconds; n++ {
		s := newSample()
		wall, alloc, err := rep.timeRound(round, nil, s)
		if err != nil {
			return err
		}
		allocs = append(allocs, alloc)
		plain = append(plain, wall)
		if o.trace {
			s = newSample()
			t := newTracer()
			if wall, _, err = rep.timeRound(round, t, s); err != nil {
				return err
			}
			traced = append(traced, wall)
			rep.spans = append(rep.spans, t.spans)
		}
		samples = append(samples, s)
		if err := resetup(); err != nil {
			return err
		}
	}
	f := rep.gauge.factor()
	rep.factor = f
	rep.metrics["setup_s"] = median(rep.setupWalls) * f
	for _, s := range samples {
		s.normalise(f)
	}
	for k, v := range mediansByKey(samples) {
		rep.metrics[k] = v
	}
	for _, s := range samples[1:] {
		rep.op("repeat counts", equalCounts(samples[0].counts, s.counts))
	}
	rep.counts = samples[0].counts
	rep.untraced, rep.traced = plain, traced
	if o.trace {
		rep.metrics["telemetry.trace_overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	} else {
		rep.metrics["round_s"] = median(plain) * f
		rep.metrics["alloc_mb"] = median(allocs)
	}
	return nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mediansByKey returns, for every metric any sample has, the median over
// the samples that have it.
func mediansByKey(samples []*sample) map[string]float64 {
	vals := map[string][]float64{}
	for _, s := range samples {
		for k, v := range s.metrics {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// equalCounts reports every count that differs between want and got.
func equalCounts(want, got map[string]int64) error {
	var diffs []string
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			diffs = append(diffs, fmt.Sprintf("%s: %d, want %d", k, g, v))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, k+": unexpected")
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return errors.New("counts differ: " + strings.Join(diffs, ", "))
}

// timeSetup runs setup setupReps times as one timed block, adds each wall
// time to rep, and returns the last set-up's result; earlier results are
// handed to discard.
func timeSetup[T any](rep *report, setup func() (T, error), discard func(T)) (T, error) {
	var last T
	var err error
	rep.gauge.around(func() {
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			t0 := time.Now()
			v, e := setup()
			d := time.Since(t0)
			if e != nil {
				err = e
				return
			}
			rep.setupWalls = append(rep.setupWalls, d.Seconds())
			if i > 0 && discard != nil {
				discard(last)
			}
			last = v
		}
	})
	return last, err
}

// workload is one of the benchmark's workloads.
type workload struct {
	run func(options) (*report, error)
	// seeded says whether the workload's inputs depend on the seed; if
	// not, its work counts must repeat across runs of every seed.
	seeded bool
	// layers are the per-layer metrics a traced run must measure. The
	// other per-layer metrics of BENCHMARK.json belong to layers the
	// workload never calls, and print as 0.
	layers []string
}

var workloads = map[string]workload{
	"compile": {run: runCompile, layers: compileLayers},
	"grade":   {run: runGrade, seeded: true, layers: gradeLayers},
	"serve":   {run: runServe, layers: serveLayers},
}

// fsimLayers lists the fsim metrics of the given stages: the work counts
// and rate always, fsim.run_s only for stages that are one fsim call.
func fsimLayers(withRunTime bool, stages ...string) []string {
	var out []string
	for _, st := range stages {
		for _, m := range []string{"effective_evals", "vectors", "group_passes", "faults_dropped", "slab_passes", "sweep_fallbacks", "evals_per_s"} {
			out = append(out, "fsim."+m+"."+st)
		}
		if withRunTime {
			out = append(out, "fsim.run_s."+st)
		}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: compile, grade or serve")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// FSIM_KERNEL silently changes what the default kernel is, so two
	// commits run under it would not be measuring the same configuration.
	if v, ok := os.LookupEnv("FSIM_KERNEL"); ok {
		return fail(fmt.Errorf("refusing to run with FSIM_KERNEL=%q set", v))
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	wl, ok := workloads[*name]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
	}
	host := map[string]any{
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"kernel":      fsim.Kernel(0).Resolve().String(),
		"workers":     map[string]int{"compile": o.workers, "grade": o.workers, "serve": serveJobWorkers},
		"workload":    *name,
		"seed":        o.seed,
		"trace":       o.trace,
		"run_seconds": *seconds,
		"ref_nominal": refNominal,
	}
	emit(stdout, "host", host)

	rep, err := wl.run(o)
	if err != nil {
		return fail(err)
	}
	if o.trace {
		key := *name
		if wl.seeded {
			key += fmt.Sprintf("-%d", o.seed)
		}
		rep.op("deterministic counts", compareCounts(key, rep.counts))
		if err := writeSpans(*name, o.seed, rep.spans); err != nil {
			return fail(err)
		}
	}
	emit(stdout, "outputs", rep.outputs)
	emit(stdout, "rounds", map[string]any{
		"untraced_wall_s": rep.untraced,
		"traced_wall_s":   rep.traced,
		"setup_wall_s":    median(rep.setupWalls),
		"ref_s":           rep.gauge.readings,
		"factor":          rep.factor,
	})
	if len(rep.counts) > 0 {
		emit(stdout, "counts", rep.counts)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: FAILED", p)
	}

	want := sp.EndToEnd
	required := map[string]bool{}
	for _, m := range want {
		required[m.Name] = true
	}
	if o.trace {
		want = sp.PerLayer
		required = map[string]bool{"telemetry.trace_overhead_pct": true}
		for _, m := range wl.layers {
			required[m] = true
		}
	}
	metrics := map[string]any{}
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok {
			if required[m.Name] {
				return fail(fmt.Errorf("workload %s measured no %s", *name, m.Name))
			}
			v = 0 // the workload makes no call into this layer
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if !o.trace {
		// The named per-workload breakdown of the untraced rounds.
		extra := map[string]float64{}
		for k, v := range rep.metrics {
			if _, ok := metrics[k]; !ok {
				extra[k] = v
			}
		}
		emit(stdout, "detail", extra)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// emit prints one informational JSON line, {"<kind>": v}.
func emit(w io.Writer, kind string, v any) {
	b, err := json.Marshal(map[string]any{kind: v})
	if err != nil {
		b = []byte(fmt.Sprintf(`{"%s": %q}`, kind, err.Error()))
	}
	fmt.Fprintln(w, string(b))
}

// writeSpans writes the spans of a traced run as JSON lines to
// .bench_build/perfbench/spans-<workload>-<seed>.jsonl. Spans of one round
// share its round number.
func writeSpans(workload string, seed uint64, rounds [][]span) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for r, spans := range rounds {
		for _, sp := range spans {
			if err := enc.Encode(map[string]any{
				"round": r, "span": sp.Name, "start_ns": sp.Start.Nanoseconds(),
				"duration_ns": sp.Dur.Nanoseconds(), "counters": sp.Ctrs.Map(),
			}); err != nil {
				return err
			}
		}
	}
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// compareCounts checks a traced run's deterministic work counts against the
// first traced run of the same binary and key in this checkout, recording
// them if this is that first run. The key is the workload, with the seed
// appended for a workload whose inputs depend on it, so runs of different
// seeds are compared wherever the counts cannot depend on the seed.
func compareCounts(key string, counts map[string]int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	dir := filepath.Join(workDir, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.json", hex.EncodeToString(sum[:8]), key))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b, err := json.MarshalIndent(counts, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]int64
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := equalCounts(want, counts); err != nil {
		return fmt.Errorf("against the first traced run (%s): %w", path, err)
	}
	return nil
}
