package expt

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/iscas"
	"repro/internal/telemetry"
)

// failNTimes installs a loadCircuit hook that fails the first n calls with
// the returned sentinel error and behaves like iscas.Load afterwards. The
// cleanup restores the real loader.
func failNTimes(t *testing.T, n int64) (*atomic.Int64, error) {
	t.Helper()
	sentinel := errors.New("injected transient load failure")
	var calls atomic.Int64
	loadCircuit = func(name string) (*circuit.Circuit, error) {
		if calls.Add(1) <= n {
			return nil, sentinel
		}
		return iscas.Load(name)
	}
	t.Cleanup(func() { loadCircuit = iscas.Load })
	return &calls, sentinel
}

// TestRunCircuitTransientErrorEvicted is the regression test for the memo
// poisoning bug: with the sync.Once-based memo, the first (transient) load
// failure was cached forever and every retry of the same (circuit, config)
// key replayed it. The fixed memo evicts the entry on error, so the retry
// recomputes and succeeds.
func TestRunCircuitTransientErrorEvicted(t *testing.T) {
	ClearCache()
	calls, sentinel := failNTimes(t, 1)

	cfg := Config{LG: 100, Seed: 1}
	if _, err := RunCircuit("s27", cfg); !errors.Is(err, sentinel) {
		t.Fatalf("first call: err = %v, want injected failure", err)
	}
	r, err := RunCircuit("s27", cfg)
	if err != nil {
		t.Fatalf("retry after transient failure: %v (error entry poisoned the memo)", err)
	}
	if r == nil || len(r.Compacted) == 0 {
		t.Fatal("retry returned an empty run")
	}
	// The successful run is memoized as usual: no third load.
	again, err := RunCircuit("s27", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != r {
		t.Error("successful retry was not memoized")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("loadCircuit called %d times, want 2 (one failure, one success)", got)
	}
}

// TestRunCircuitErrorEvictionConcurrent drives a failing flight from many
// goroutines (run under -race by the Makefile's race target): every joiner of
// the failed flight shares its error, and the eviction makes the NEXT wave
// recompute successfully — exactly once.
func TestRunCircuitErrorEvictionConcurrent(t *testing.T) {
	ClearCache()
	calls, sentinel := failNTimes(t, 1)

	cfg := Config{LG: 100, Seed: 1}
	const goroutines = 8
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			_, errs[g] = RunCircuit("s27", cfg)
		}(g)
	}
	start.Done()
	done.Wait()

	// The first wave shares one flight. Depending on scheduling that flight
	// is the injected failure or (if a goroutine raced past the failed
	// flight's eviction) a successful recompute — but never a mix of
	// *different* errors, and at most one failure wave.
	for g, err := range errs {
		if err != nil && !errors.Is(err, sentinel) {
			t.Fatalf("goroutine %d: unexpected error %v", g, err)
		}
	}

	// After the dust settles a fresh call must succeed and stay memoized.
	r, err := RunCircuit("s27", cfg)
	if err != nil {
		t.Fatalf("post-failure call: %v", err)
	}
	b, err := RunCircuit("s27", cfg)
	if err != nil || b != r {
		t.Fatalf("successful run not memoized: %v", err)
	}
	if got := calls.Load(); got < 2 || got > goroutines+1 {
		t.Errorf("loadCircuit called %d times, want between 2 and %d", got, goroutines+1)
	}
}

// TestRunCircuitCancelledEvicted: a cancelled run is an error like any other
// — it must not poison the key, so a retry without the cancelled context
// recomputes.
func TestRunCircuitCancelledEvicted(t *testing.T) {
	ClearCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{LG: 100, Seed: 1}
	cfg.Ctx = ctx
	if _, err := RunCircuit("s27", cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	cfg.Ctx = nil
	r, err := RunCircuit("s27", cfg)
	if err != nil {
		t.Fatalf("retry after cancellation: %v (cancellation poisoned the memo)", err)
	}
	if len(r.Compacted) == 0 {
		t.Fatal("retry returned an empty run")
	}
}

// cancelOnSpan cancels a context when the named span ends and keeps every
// span event it sees.
type cancelOnSpan struct {
	span   string
	cancel context.CancelFunc
	events map[string]telemetry.SpanEvent
}

func (s cancelOnSpan) Record(ev telemetry.SpanEvent) {
	s.events[ev.Span] = ev
	if ev.Span == s.span {
		s.cancel()
	}
}

// TestRunPipelineCancelledInReverseOrder: a cancellation that lands after
// weight selection, while reverse-order simulation runs, must stop that
// phase and surface as context.Canceled instead of a run built on a partly
// pruned Ω.
func TestRunPipelineCancelledInReverseOrder(t *testing.T) {
	c, err := iscas.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := cancelOnSpan{span: "pipeline/core", cancel: cancel, events: map[string]telemetry.SpanEvent{}}
	cfg := CanonicalConfig("s27", Config{LG: 100, Seed: 1})
	cfg.Ctx = ctx
	cfg.Telemetry = telemetry.New(sink)
	if _, err := RunPipeline(c, InitFor("s27"), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunPipeline cancelled after pipeline/core: err = %v, want context.Canceled", err)
	}
	ro, ok := sink.events["pipeline/reverse-order"]
	if !ok {
		t.Fatal("no pipeline/reverse-order span recorded")
	}
	if v := ro.Counters["fsim.vectors"]; v != 0 {
		t.Errorf("reverse-order simulated %d vectors after the cancel, want 0", v)
	}
}

// TestCtxNotPartOfMemoKey: runs differing only in their context share one
// memoized computation, like Workers and Telemetry.
func TestCtxNotPartOfMemoKey(t *testing.T) {
	ClearCache()
	a, err := RunCircuit("s27", Config{LG: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LG: 100, Seed: 1}
	cfg.Ctx = context.Background()
	b, err := RunCircuit("s27", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Ctx leaked into the memoization key")
	}
}

// TestCanonicalConfig: the canonical form is what both cache layers key on.
func TestCanonicalConfig(t *testing.T) {
	c := CanonicalConfig("s298", Config{})
	if c.LG != 2000 {
		t.Errorf("defaults not filled: LG = %d", c.LG)
	}
	p := CanonicalConfig("s5378", Config{})
	if p.ATPGRandomLen != 1024 || !p.ATPGNoCompaction {
		t.Errorf("presets not applied: %+v", p)
	}
}
