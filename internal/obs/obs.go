// Package obs implements the observation-point insertion experiment of
// Section 5 of the paper. Weight assignments are selected greedily out of Ω
// (the set produced by the core procedure, before reverse-order simulation)
// into a limited set Ω_lim; for every fault left undetected by Ω_lim, the set
// OP(f) of lines whose observation would detect f under one of Ω_lim's
// sequences is computed, and a minimal set of observation points covering
// the detectable faults is chosen with a greedy covering procedure.
package obs

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
)

// Row is one line of the paper's Tables 7-16 for a given |Ω_lim|.
type Row struct {
	// Seq is the number of weight assignments in Ω_lim.
	Seq int
	// Subs is the number of distinct subsequences defining them.
	Subs int
	// Len is the longest subsequence length among them.
	Len int
	// FE is the fault efficiency of Ω_lim alone (percent of the faults
	// detected by the full Ω).
	FE float64
	// Obs is the number of observation points selected.
	Obs int
	// FEObs is the fault efficiency with the observation points (percent).
	FEObs float64
}

func (r Row) String() string {
	return fmt.Sprintf("seq=%d subs=%d len=%d f.e.=%.2f obs=%d f.e.+obs=%.2f",
		r.Seq, r.Subs, r.Len, r.FE, r.Obs, r.FEObs)
}

// Result is the full experiment outcome.
type Result struct {
	// Rows holds one entry per greedy prefix size, in increasing size order.
	Rows []Row
	// Order is the greedy selection order (indices into the core result's
	// Omega).
	Order []int
	// ObsLines[k] lists the node ids chosen as observation points for prefix
	// size k+1.
	ObsLines [][]circuit.NodeID
}

// FilteredRows returns the rows the paper would print: only prefixes whose
// final fault efficiency is at least minFE percent, and dropping a row when
// neither the observation-point count nor the fault efficiencies changed
// relative to the previous printed row.
func (r *Result) FilteredRows(minFE float64) []Row {
	var out []Row
	for _, row := range r.Rows {
		if row.FEObs < minFE {
			continue
		}
		if n := len(out); n > 0 {
			prev := out[n-1]
			if prev.Obs == row.Obs && prev.FE == row.FE && prev.FEObs == row.FEObs {
				continue
			}
		}
		out = append(out, row)
		if row.FE >= 100 {
			break
		}
	}
	return out
}

// CoverFunc selects observation points for the undetected faults' OP sets,
// returning the chosen lines and how many faults they cover.
type CoverFunc func(opSets []fsim.Bitset, undet []bool, numNodes int) ([]circuit.NodeID, int)

// GreedyCover is the paper's covering procedure: repeatedly pick the line
// covering the most remaining faults.
func GreedyCover(opSets []fsim.Bitset, undet []bool, numNodes int) ([]circuit.NodeID, int) {
	return cover(opSets, undet, numNodes)
}

// NewRankedCover returns a CoverFunc that picks observation points in order
// of decreasing cost (e.g. SCOAP observability: hardest-to-observe lines
// first), restricted to lines that still cover at least one fault. It is the
// testability-heuristic baseline the greedy covering is benchmarked against.
func NewRankedCover(cost []int32) CoverFunc {
	return func(opSets []fsim.Bitset, undet []bool, numNodes int) ([]circuit.NodeID, int) {
		var active []int
		for i, u := range undet {
			if u && opSets[i] != nil && opSets[i].Count() > 0 {
				active = append(active, i)
			}
		}
		// Candidate lines: union of all OP sets, sorted by decreasing cost.
		union := fsim.NewBitset(numNodes)
		for _, i := range active {
			orInto(union, opSets[i])
		}
		var cand []int
		forEachBit(union, func(n int) { cand = append(cand, n) })
		sortByCostDesc(cand, cost)
		var lines []circuit.NodeID
		covered := 0
		for _, n := range cand {
			if len(active) == 0 {
				break
			}
			hit := false
			var next []int
			for _, i := range active {
				if opSets[i].Get(n) {
					hit = true
					covered++
				} else {
					next = append(next, i)
				}
			}
			if hit {
				lines = append(lines, circuit.NodeID(n))
				active = next
			}
		}
		return lines, covered
	}
}

func sortByCostDesc(cand []int, cost []int32) {
	// Insertion sort keeps this dependency-free and is fine at the sizes the
	// experiment produces (candidate sets are small line subsets).
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0; j-- {
			a, b := cand[j-1], cand[j]
			if cost[a] > cost[b] || (cost[a] == cost[b] && a <= b) {
				break
			}
			cand[j-1], cand[j] = cand[j], cand[j-1]
		}
	}
}

// Experiment runs the Section 5 flow on a core procedure result with the
// paper's greedy covering procedure. It uses Ω before reverse-order
// simulation, exactly as the paper does.
func Experiment(r *core.Result) *Result {
	return ExperimentWithCover(r, GreedyCover)
}

// ExperimentWithCover is Experiment with a custom observation-point
// selection strategy.
func ExperimentWithCover(r *core.Result, coverFn CoverFunc) *Result {
	sp := r.Options.Span.Child("obs")
	defer sp.End()
	lg := r.Options.LG
	if lg == 0 {
		lg = 2000
	}
	for _, dt := range r.DetTime {
		if dt+1 > lg {
			lg = dt + 1
		}
	}
	detSets := core.DetectionSets(r)
	nTargets := len(r.TargetFaults)
	order := greedyOrder(detSets, nTargets)

	res := &Result{Order: order}
	if nTargets == 0 {
		return res
	}

	simulator := fsim.New(r.Circuit)
	// undetected faults under the current prefix
	undet := make([]bool, nTargets)
	for i := range undet {
		undet[i] = true
	}
	remaining := nTargets
	// opSets[i] accumulates OP(f) lines for undetected fault i across the
	// prefix's assignments.
	opSets := make([]fsim.Bitset, nTargets)

	var chosen []core.Assignment
	for _, j := range order {
		chosen = append(chosen, r.Omega[j])
		// Faults newly detected by assignment j leave the undetected set.
		for i := 0; i < nTargets; i++ {
			if undet[i] && detSets[j].Get(i) {
				undet[i] = false
				opSets[i] = nil
				remaining--
			}
		}
		// Assignment j contributes observability lines for the still
		// undetected faults.
		if remaining > 0 {
			var fl []fault.Fault
			var idx []int
			for i := 0; i < nTargets; i++ {
				if undet[i] {
					fl = append(fl, r.TargetFaults[i])
					idx = append(idx, i)
				}
			}
			seq := r.Omega[j].GenSequence(lg)
			out := simulator.Run(seq, fl, fsim.Options{Init: r.Options.Init, ObserveLines: true, Workers: r.Options.Workers, Kernel: r.Options.Kernel})
			for k, i := range idx {
				if opSets[i] == nil {
					opSets[i] = fsim.NewBitset(len(r.Circuit.Nodes))
				}
				orInto(opSets[i], out.Lines[k])
			}
		}
		// Cover the detectable undetected faults with observation points.
		lines, covered := coverFn(opSets, undet, len(r.Circuit.Nodes))
		fe := 100 * float64(nTargets-remaining) / float64(nTargets)
		feObs := 100 * float64(nTargets-remaining+covered) / float64(nTargets)
		sub := core.Accounting(chosen)
		res.Rows = append(res.Rows, Row{
			Seq:   len(chosen),
			Subs:  sub.NumSubs,
			Len:   sub.MaxLen,
			FE:    fe,
			Obs:   len(lines),
			FEObs: feObs,
		})
		res.ObsLines = append(res.ObsLines, lines)
		if remaining == 0 {
			break
		}
	}
	return res
}

// greedyOrder picks assignments by maximum marginal coverage until every
// coverable fault is covered.
func greedyOrder(detSets []fsim.Bitset, nTargets int) []int {
	covered := fsim.NewBitset(nTargets)
	nCovered := 0
	used := make([]bool, len(detSets))
	var order []int
	for nCovered < nTargets {
		best, bestGain := -1, 0
		for j := range detSets {
			if used[j] {
				continue
			}
			gain := marginal(detSets[j], covered)
			if gain > bestGain {
				best, bestGain = j, gain
			}
		}
		if best < 0 {
			break // remaining faults uncoverable by Ω (should not happen)
		}
		used[best] = true
		order = append(order, best)
		for w := range covered {
			covered[w] |= detSets[best][w]
		}
		nCovered += bestGain
	}
	return order
}

func marginal(s, covered fsim.Bitset) int {
	n := 0
	for w := range s {
		n += onesCount(s[w] &^ covered[w])
	}
	return n
}

// cover greedily selects lines covering the undetected faults that have a
// non-empty OP set; it returns the chosen lines and the number of faults
// they cover.
func cover(opSets []fsim.Bitset, undet []bool, numNodes int) ([]circuit.NodeID, int) {
	// Remaining coverable faults.
	var active []int
	for i, u := range undet {
		if u && opSets[i] != nil && opSets[i].Count() > 0 {
			active = append(active, i)
		}
	}
	var lines []circuit.NodeID
	coveredTotal := 0
	for len(active) > 0 {
		counts := make(map[int]int)
		for _, i := range active {
			forEachBit(opSets[i], func(n int) {
				counts[n]++
			})
		}
		best, bestCnt := -1, 0
		for n, cnt := range counts {
			if cnt > bestCnt || (cnt == bestCnt && (best < 0 || n < best)) {
				best, bestCnt = n, cnt
			}
		}
		if best < 0 {
			break
		}
		lines = append(lines, circuit.NodeID(best))
		var next []int
		for _, i := range active {
			if opSets[i].Get(best) {
				coveredTotal++
			} else {
				next = append(next, i)
			}
		}
		active = next
	}
	return lines, coveredTotal
}

func orInto(dst, src fsim.Bitset) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

func onesCount(x uint64) int { return bits.OnesCount64(x) }

func forEachBit(b fsim.Bitset, f func(int)) {
	for w, word := range b {
		for x := word; x != 0; x &= x - 1 {
			f(w*64 + bits.TrailingZeros64(x))
		}
	}
}
