package core

import "pestrie/internal/matrix"

// GreedyOrder computes the Comer-style greedy object order §5.2 cites:
// "selecting an attribute at each level which adds the smallest number of
// nodes to the next level almost builds an optimal Trie". Via Lemma 3,
// Trie nodes added per step equal the cross edges created plus one, so
// the greedy order directly approximates the (NP-hard) optimal Pestrie
// construction problem.
//
// The simulation maintains the same pointer partition as the real
// construction; each step scans every remaining object's pointed-by row
// to count the groups it would split, so the whole order costs
// O(m · facts) — acceptable as an offline reference for the hub-degree
// heuristic, which achieves similar quality in O(facts).
func GreedyOrder(pm *matrix.PointsTo) []int {
	pmt := pm.Transpose()
	m := pm.NumObjects

	// groupOf mirrors partition(): 0 means "fresh" (no group yet); group
	// IDs start at 1.
	groupOf := make([]int, pm.NumPointers)
	nextGroup := 1

	remaining := make([]int, m)
	for i := range remaining {
		remaining[i] = i
	}
	// Tie-breaking uses hub degree (descending) so the greedy degrades to
	// the paper's heuristic on ties, then object ID for determinism.
	hub := pm.HubDegrees(pmt)

	order := make([]int, 0, m)
	seen := map[int]int{} // group -> last step touched, reused per candidate
	step := 0
	for len(remaining) > 0 {
		best, bestCost := -1, -1
		for _, o := range remaining {
			step++
			cost := 0
			fresh := false
			pmt.Row(o).ForEach(func(p int) bool {
				g := groupOf[p]
				if g == 0 {
					fresh = true
					return true
				}
				if seen[g] != step {
					seen[g] = step
					cost++
				}
				return true
			})
			if fresh {
				cost++ // the new origin group also adds a Trie node
			}
			if best < 0 || cost < bestCost ||
				(cost == bestCost && hub[o] > hub[best]) ||
				(cost == bestCost && hub[o] == hub[best] && o < best) {
				best, bestCost = o, cost
			}
		}
		order = append(order, best)
		// Apply the split for the chosen object, exactly as partition()
		// would: every touched group's row-members move to a fresh group
		// (whether or not the group empties does not change future
		// splitting behaviour, only edge bookkeeping).
		step++
		moved := map[int]int{} // old group -> new group this step
		pmt.Row(best).ForEach(func(p int) bool {
			g := groupOf[p]
			ng, ok := moved[g]
			if !ok {
				ng = nextGroup
				nextGroup++
				moved[g] = ng
			}
			groupOf[p] = ng
			return true
		})
		// Remove best from remaining.
		for i, o := range remaining {
			if o == best {
				remaining[i] = remaining[len(remaining)-1]
				remaining = remaining[:len(remaining)-1]
				break
			}
		}
	}
	return order
}
