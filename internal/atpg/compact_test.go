package atpg

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/rcg"
)

// TestCheckpointedCompactionMatchesFullRerun is the differential test of
// the checkpointed compaction: resuming only the targets first detected at
// or after a deleted block, from their block-boundary states, must accept
// exactly the candidates the full re-simulation accepts, so the compacted
// sequence is byte-identical. It runs stuck-at and bridge targets on random
// and suite circuits, under every kernel and Workers ∈ {1, 2}.
func TestCheckpointedCompactionMatchesFullRerun(t *testing.T) {
	type input struct {
		name   string
		c      *circuit.Circuit
		init   logic.V
		blocks []int
	}
	var inputs []input
	inputs = append(inputs, input{"s27", iscas.MustLoad("s27"), logic.X, nil})
	for _, name := range []string{"s298", "s386"} {
		inputs = append(inputs, input{name, iscas.MustLoad(name), logic.Zero, nil})
	}
	for _, seed := range []uint64{3, 11, 29, 77, 512} {
		// Small blocks give the short random-circuit sequences many
		// candidates, including deletions right at a detection time.
		inputs = append(inputs, input{fmt.Sprintf("rcg%d", seed), rcg.FromSeed(seed), logic.Zero, []int{16, 5, 2}})
	}
	models := []fault.Model{fault.StuckAt{}, fault.Bridging{}}

	for _, in := range inputs {
		for _, model := range models {
			opts := Options{Seed: 5, Init: in.init, Model: model, CompactionBlocks: in.blocks, RandomLen: 128, NoCompaction: true}
			gen := Generate(in.c, opts)
			opts.fill(in.c)
			s := fsim.New(in.c)
			targets, ok := compactionTargets(s, gen.Seq, gen.Faults, opts)
			if !ok || len(targets) == 0 {
				continue
			}
			want := compactBlocks(s, gen.Seq, targets, opts, false)
			for _, kernel := range []string{"dense", "event", "slab"} {
				for _, workers := range []int{1, 2} {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", in.name, model.Name(), kernel, workers), func(t *testing.T) {
						t.Setenv("FSIM_KERNEL", kernel)
						o := opts
						o.Workers = workers
						got := compactBlocks(fsim.New(in.c), gen.Seq, targets, o, true)
						if got.String() != want.String() {
							t.Fatalf("checkpointed compaction kept %d of %d vectors, full re-run %d: sequences differ",
								got.Len(), gen.Seq.Len(), want.Len())
						}
					})
				}
			}
		}
	}
}

// TestRepackStates: a fault's repacked slot carries exactly its saved state,
// slot 0 and the unused slots carry the fault-free machine.
func TestRepackStates(t *testing.T) {
	const dffs = 3
	n := 2*fsim.GroupSize + 5
	states := make([][]logic.W, (n+fsim.GroupSize-1)/fsim.GroupSize)
	val := func(i, k int) logic.V { return logic.V((i + k) % 3) }
	for g := range states {
		states[g] = make([]logic.W, dffs)
		for k := range states[g] {
			states[g][k] = states[g][k].Set(0, logic.One)
		}
	}
	for i := 0; i < n; i++ {
		for k := 0; k < dffs; k++ {
			g, slot := i/fsim.GroupSize, uint(i%fsim.GroupSize)+1
			states[g][k] = states[g][k].Set(slot, val(i, k))
		}
	}
	idx := []int{2, 64, 65, n - 1}
	got := repackStates(states, idx)
	if len(got) != 1 {
		t.Fatalf("%d groups, want 1", len(got))
	}
	for k := 0; k < dffs; k++ {
		w := got[0][k]
		for slot := uint(0); slot < 64; slot++ {
			want := logic.One
			if j := int(slot) - 1; j >= 0 && j < len(idx) {
				want = val(idx[j], k)
			}
			if w.Get(slot) != want {
				t.Errorf("dff %d slot %d = %v, want %v", k, slot, w.Get(slot), want)
			}
		}
	}
	if e := extractState(got, 1, dffs); e[0] != val(64, 0) {
		t.Errorf("extractState of repacked fault 1 = %v, want %v", e, val(64, 0))
	}
}
