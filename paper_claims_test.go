package dynmis

// Paper claims checked end to end, one test per claim, beside the
// VALIDATION.md tables and the package tests: each test below states the
// claim, uses fixed seeds, and asserts either an exact value (where the
// construction is deterministic) or a bound of at least four standard
// errors (where it is statistical).

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"dynmis/internal/bitorder"
	"dynmis/internal/clustering"
	"dynmis/internal/coloring"
	"dynmis/internal/core"
	"dynmis/internal/direct"
	"dynmis/internal/graph"
	"dynmis/internal/matching"
	"dynmis/internal/order"
	"dynmis/internal/protocol"
	"dynmis/internal/simnet"
	"dynmis/internal/stats"
	"dynmis/workload"
)

// TestPaperTheorem1FixedChange measures Theorem 1 the way it is stated:
// a FIXED graph and a FIXED topology change, expectation over the random
// order only. Node deletion is the near-equality case: on the 10×10 grid
// E[|S|] is close to 1, and on the star deleting the centre attains the
// bound exactly (the centre is first in π with probability 1/n, and then
// all n nodes flip), so a biased order shows up there.
func TestPaperTheorem1FixedChange(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	cases := []struct {
		name  string
		build []graph.Change
		del   graph.NodeID
	}{
		{"grid10x10/node45", workload.Grid(10, 10), 45},
		{"star8/centre", workload.Star(8), 0},
	}
	for _, tc := range cases {
		var s stats.Series
		for seed := range 3000 {
			eng := core.NewTemplate(uint64(seed))
			if _, err := eng.ApplyAll(tc.build); err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Apply(graph.NodeChange(graph.NodeDeleteGraceful, tc.del))
			if err != nil {
				t.Fatal(err)
			}
			s.ObserveInt(rep.SSize)
		}
		if s.Mean() > 1+4*s.StdErr() {
			t.Errorf("%s: E[|S|] = %.4f ± %.4f over %d orders, exceeds Theorem 1's bound of 1",
				tc.name, s.Mean(), s.StdErr(), s.N())
		}
		t.Logf("%s: E[|S|] = %.4f ± %.4f over %d orders (Theorem 1 bound: 1)", tc.name, s.Mean(), s.StdErr(), s.N())
	}
}

// kkDeletionCosts builds K_{k,k} in tpl and deletes side L node by node
// (workload.LowerBoundDeletions), returning each deletion's adjustments.
// With byID, every node's priority is pinned to its ID: the natural
// deterministic algorithm, greedy over the fixed ID order.
func kkDeletionCosts(t *testing.T, tpl *core.Template, byID bool, k int) []int {
	t.Helper()
	for _, c := range workload.CompleteBipartite(k) {
		if byID {
			tpl.Order().Set(c.Node, order.Priority(c.Node))
		}
		if _, err := tpl.Apply(c); err != nil {
			t.Fatal(err)
		}
	}
	var costs []int
	for _, c := range workload.LowerBoundDeletions(k) {
		rep, err := tpl.Apply(c)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, rep.Adjustments)
	}
	if err := tpl.Check(); err != nil {
		t.Fatal(err)
	}
	return costs
}

// TestPaperLowerBoundKkk checks the §1.1 lower bound on K_{k,k}. The
// deterministic ID-ordered greedy puts side L (the smaller IDs) in the
// MIS, so deleting L node by node ends with one change that flips all of
// side R: at least k adjustments. On that same change the randomized
// template pays 1 adjustment in expectation.
func TestPaperLowerBoundKkk(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	const k = 16
	det := kkDeletionCosts(t, core.NewTemplateWithOrder(order.New(0)), true, k)
	if last := det[k-1]; last < k {
		t.Errorf("deterministic: final deletion adjusted %d nodes, want ≥ k = %d", last, k)
	}

	var rnd stats.Series
	for seed := range 400 {
		costs := kkDeletionCosts(t, core.NewTemplate(uint64(1000+seed)), false, k)
		rnd.ObserveInt(costs[k-1])
	}
	if rnd.Mean() > 1+4*rnd.StdErr() {
		t.Errorf("randomized: final deletion adjusted %.3f ± %.3f nodes on average, want ≤ 1",
			rnd.Mean(), rnd.StdErr())
	}
	t.Logf("k=%d final deletion: deterministic %d adjustments, randomized %.3f ± %.3f over %d seeds",
		k, det[k-1], rnd.Mean(), rnd.StdErr(), rnd.N())
}

// TestPaperLowerBoundCascadeByID checks the mechanics of the §1.1
// adversary against the ID-ordered greedy on K_{k,k}: side L (IDs
// 0..k-1) starts as the MIS, each of the first k-1 deletions of L
// adjusts only the deleted node, and the last one also flips all of side
// R in — exactly k+1 adjustments in one change.
func TestPaperLowerBoundCascadeByID(t *testing.T) {
	const k = 12
	tpl := core.NewTemplateWithOrder(order.New(0))
	for _, c := range workload.CompleteBipartite(k) {
		tpl.Order().Set(c.Node, order.Priority(c.Node))
		if _, err := tpl.Apply(c); err != nil {
			t.Fatal(err)
		}
	}
	for v := range graph.NodeID(k) {
		if !tpl.InMIS(v) {
			t.Fatalf("node %d of side L not in the ID-ordered MIS %v", v, tpl.MIS())
		}
	}
	dels := workload.LowerBoundDeletions(k)
	for i, c := range dels {
		rep, err := tpl.Apply(c)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if i == len(dels)-1 {
			want = k + 1
		}
		if rep.Adjustments != want {
			t.Errorf("deletion %d of %d: %d adjustments, want %d", i+1, len(dels), rep.Adjustments, want)
		}
	}
	for v := graph.NodeID(k); v < 2*k; v++ {
		if !tpl.InMIS(v) {
			t.Errorf("node %d of side R not in the MIS after side L is gone", v)
		}
	}
	if err := tpl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPaperStarHistoryIndependence checks §5 Example 1: the adversary
// builds the star centre-first, which leaves a history-dependent MIS at
// size 1, but the maintained MIS holds the centre only when it is first
// in π — with frequency 1/n.
func TestPaperStarHistoryIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	const n, runs = 8, 2000
	hits := 0
	for seed := range runs {
		eng := core.NewTemplate(uint64(seed))
		if _, err := eng.ApplyAll(workload.Star(n)); err != nil {
			t.Fatal(err)
		}
		if eng.InMIS(0) {
			hits++
		}
	}
	p := 1.0 / n
	sigma := math.Sqrt(p * (1 - p) / runs)
	got := float64(hits) / runs
	if got < p-4*sigma || got > p+4*sigma {
		t.Errorf("centre in the MIS in %.4f of %d runs, want 1/n = %.4f ± %.4f (4σ)", got, runs, p, 4*sigma)
	}
}

// fanPath builds the §4 blow-up gadget: v* = 0 (earliest in π) adjacent
// to all of u_1 < … < u_k, which also form a path u_1-…-u_k. While v* is
// in the MIS every u_i is out.
func fanPath(k int, ord *order.Order) []graph.Change {
	ord.Set(0, 1)
	cs := []graph.Change{graph.NodeChange(graph.NodeInsert, 0)}
	for i := 1; i <= k; i++ {
		ord.Set(graph.NodeID(i), order.Priority(i+1))
		nbrs := []graph.NodeID{0}
		if i > 1 {
			nbrs = append(nbrs, graph.NodeID(i-1))
		}
		cs = append(cs, graph.NodeChange(graph.NodeInsert, graph.NodeID(i), nbrs...))
	}
	return cs
}

// TestPaperFlipBlowup checks §4: gracefully deleting v* from the fan-path
// gadget makes the direct implementation oscillate (u_i flips about i/2
// times, so ≥ k²/2 flips in all), while Algorithm 2 changes each of the
// k+1 influenced nodes' state once, at three broadcasts each (Lemma 8).
func TestPaperFlipBlowup(t *testing.T) {
	del := graph.NodeChange(graph.NodeDeleteGraceful, 0)
	for _, k := range []int{16, 32} {
		pOrd := order.New(1)
		alg2 := protocol.NewWithOrder(pOrd)
		if _, err := alg2.ApplyAll(fanPath(k, pOrd)); err != nil {
			t.Fatal(err)
		}
		pRep, err := alg2.Apply(del)
		if err != nil {
			t.Fatal(err)
		}
		if pRep.Flips != k+1 || pRep.Broadcasts != 3*(k+1) {
			t.Errorf("k=%d Algorithm 2: %d flips, %d broadcasts, want %d and %d",
				k, pRep.Flips, pRep.Broadcasts, k+1, 3*(k+1))
		}

		dOrd := order.New(1)
		dir := direct.NewWithOrder(dOrd)
		if _, err := dir.ApplyAll(fanPath(k, dOrd)); err != nil {
			t.Fatal(err)
		}
		dRep, err := dir.Apply(del)
		if err != nil {
			t.Fatal(err)
		}
		if dRep.Flips < k*k/2 {
			t.Errorf("k=%d direct: %d flips, want ≥ k²/2 = %d", k, dRep.Flips, k*k/2)
		}
	}
}

// pathHistories are two ways to reach the path 0-1-2-3: directly, and
// adversarially through decoy nodes, extra edges, deletions and
// reorderings.
var pathHistories = map[string][]graph.Change{
	"direct": workload.Path(4),
	"adversarial": {
		graph.NodeChange(graph.NodeInsert, 3),
		graph.NodeChange(graph.NodeInsert, 99),
		graph.NodeChange(graph.NodeInsert, 1, 3, 99),
		graph.NodeChange(graph.NodeInsert, 0, 99),
		graph.NodeChange(graph.NodeInsert, 2, 0, 1, 3, 99),
		graph.EdgeChange(graph.EdgeDeleteGraceful, 1, 3),
		graph.EdgeChange(graph.EdgeDeleteAbrupt, 0, 2),
		graph.NodeChange(graph.NodeDeleteAbrupt, 99),
		graph.EdgeChange(graph.EdgeInsert, 0, 1),
		graph.EdgeChange(graph.EdgeDeleteGraceful, 2, 1),
		graph.EdgeChange(graph.EdgeInsert, 1, 2),
	},
}

// exactPathLaw returns the law of greedy's MIS on the path 0-1-2-3 under
// a uniform order, by enumerating all 4! orders.
func exactPathLaw() map[string]float64 {
	g := workload.BuildGraph(workload.Path(4))
	law := map[string]float64{}
	perm := []graph.NodeID{0, 1, 2, 3}
	var rec func(i int)
	rec = func(i int) {
		if i == len(perm) {
			ord := order.New(0)
			for pos, v := range perm {
				ord.Set(v, order.Priority(pos+1))
			}
			law[fmt.Sprint(core.MISOf(core.GreedyMIS(g, ord)))] += 1.0 / 24
			return
		}
		for j := i; j < len(perm); j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return law
}

// TestPaperHistoryIndependenceLaw checks Definition 14 distributionally:
// the MIS law after each history matches the exact law of random greedy
// on the final graph (chi-square goodness of fit, α = 0.001).
func TestPaperHistoryIndependenceLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	const runs = 2000
	law := exactPathLaw()
	// Critical value of χ² at α = 0.001 with len(law)-1 = 2 degrees of
	// freedom.
	const critical = 13.816
	if len(law) != 3 {
		t.Fatalf("exact law has %d outcomes, want 3: %v", len(law), law)
	}
	for name, history := range pathHistories {
		counts := map[string]int{}
		for seed := range runs {
			eng := core.NewTemplate(uint64(seed))
			if _, err := eng.ApplyAll(history); err != nil {
				t.Fatal(err)
			}
			counts[fmt.Sprint(eng.MIS())]++
		}
		for outcome := range counts {
			if law[outcome] == 0 {
				t.Fatalf("%s history: outcome %s has probability 0 under the exact law", name, outcome)
			}
		}
		chi2 := 0.0
		for outcome, p := range law {
			d := float64(counts[outcome]) - p*runs
			chi2 += d * d / (p * runs)
		}
		if chi2 > critical {
			t.Errorf("%s history: χ² = %.2f > %.3f (α = 0.001); counts %v, exact law %v",
				name, chi2, critical, counts, law)
		}
	}
}

// TestPaperAsyncCausalDepth checks Corollary 6 for the asynchronous direct
// implementation: an edge change costs at most one asynchronous round (the
// longest causal chain of deliveries) in expectation, whatever the size of
// the graph and whatever the message scheduler.
func TestPaperAsyncCausalDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	schedulers := map[string]func() simnet.Scheduler{
		"fifo":   func() simnet.Scheduler { return simnet.FIFOScheduler{} },
		"lifo":   func() simnet.Scheduler { return simnet.LIFOScheduler{} },
		"random": func() simnet.Scheduler { return &simnet.RandomScheduler{Rng: rand.New(rand.NewPCG(3, 31))} },
	}
	for _, n := range []int{100, 300} {
		for name, sched := range schedulers {
			rng := rand.New(rand.NewPCG(uint64(n), 29))
			eng := direct.NewAsync(uint64(n), sched())
			if _, err := eng.ApplyAll(workload.GNP(rng, n, 8/float64(n))); err != nil {
				t.Fatal(err)
			}
			var depth stats.Series
			for _, c := range workload.EdgeChurn(rng, eng.Graph(), 200) {
				rep, err := eng.Apply(c)
				if err != nil {
					t.Fatal(err)
				}
				depth.ObserveInt(rep.CausalDepth)
			}
			if depth.Mean() > 1+4*depth.StdErr() {
				t.Errorf("n=%d %s: mean causal depth %.3f ± %.3f over %d edge changes, want ≤ 1",
					n, name, depth.Mean(), depth.StdErr(), depth.N())
			}
		}
	}
}

// TestPaperInsertionCostByDegree checks Lemma 10 on Algorithm 2: inserting
// a node of degree d costs one Hello, d introduction replies and three
// broadcasts per state change, so O(d) broadcasts, and the part above d
// stays O(1) in expectation at every degree (E[flips] ≤ 1 by Theorem 1).
func TestPaperInsertionCostByDegree(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	const n = 600
	rng := rand.New(rand.NewPCG(5, 43))
	eng := protocol.New(5)
	if _, err := eng.ApplyAll(workload.GNP(rng, n, 4.0/n)); err != nil {
		t.Fatal(err)
	}
	next := graph.NodeID(10 * n)
	for _, d := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		var flips stats.Series
		for range 30 {
			nodes := eng.Graph().Nodes()
			var nbrs []graph.NodeID
			for _, i := range rng.Perm(len(nodes))[:d] {
				nbrs = append(nbrs, nodes[i])
			}
			rep, err := eng.Apply(graph.NodeChange(graph.NodeInsert, next, nbrs...))
			if err != nil {
				t.Fatal(err)
			}
			if want := d + 1 + 3*rep.Flips; rep.Broadcasts != want {
				t.Errorf("d=%d: %d broadcasts for %d flips, want d+1+3·flips = %d", d, rep.Broadcasts, rep.Flips, want)
			}
			flips.ObserveInt(rep.Flips)
			// Remove the node again so the trials are independent.
			if _, err := eng.Apply(graph.NodeChange(graph.NodeDeleteGraceful, next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if flips.Mean() > 1+4*flips.StdErr() {
			t.Errorf("d=%d: mean flips per insertion %.3f ± %.3f, want ≤ 1", d, flips.Mean(), flips.StdErr())
		}
	}
}

// TestPaperAbruptHubDeletion checks Lemmas 12 and 13 on Algorithm 2:
// abruptly deleting a hub v* of degree d re-enters each node into state C
// at most min(log₃|S|, d) times, so flips ≤ |S|·(1 + min(log₃|S|, d)),
// and each flip costs at most three broadcasts.
func TestPaperAbruptHubDeletion(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewPCG(6, 47))
	eng := protocol.New(6)
	if _, err := eng.ApplyAll(workload.GNP(rng, n, 4.0/n)); err != nil {
		t.Fatal(err)
	}
	next := graph.NodeID(10 * n)
	for _, d := range []int{2, 4, 8, 16, 32, 64} {
		// A hub is in the MIS with probability about 1/(d+1); scale the
		// trials so that the cascade runs at every degree.
		inMIS := 0
		for range 8 + 3*d {
			nodes := eng.Graph().Nodes()
			var nbrs []graph.NodeID
			for _, i := range rng.Perm(len(nodes))[:d] {
				nbrs = append(nbrs, nodes[i])
			}
			hub := next
			next++
			if _, err := eng.Apply(graph.NodeChange(graph.NodeInsert, hub, nbrs...)); err != nil {
				t.Fatal(err)
			}
			if eng.InMIS(hub) {
				inMIS++
			}
			rep, err := eng.Apply(graph.NodeChange(graph.NodeDeleteAbrupt, hub))
			if err != nil {
				t.Fatal(err)
			}
			if s := float64(rep.SSize); float64(rep.Flips) > s*(1+math.Min(math.Log(s)/math.Log(3), float64(d))) {
				t.Errorf("d=%d: %d flips over |S| = %d exceed Lemma 12's re-entry bound", d, rep.Flips, rep.SSize)
			}
			if rep.Broadcasts > 3*rep.Flips {
				t.Errorf("d=%d: %d broadcasts for %d flips, want ≤ 3 per flip", d, rep.Broadcasts, rep.Flips)
			}
		}
		if inMIS == 0 {
			t.Errorf("d=%d: the hub was never in the MIS, so no deletion cascaded", d)
		}
	}
}

// TestPaperClusteringThreeApprox checks the §1.1 application (after
// Ailon–Charikar–Newman): pivot clustering read off the maintained MIS
// costs at most 3·OPT in expectation over π, on every fixed graph.
func TestPaperClusteringThreeApprox(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	for _, p := range []float64{0.2, 0.4, 0.6} {
		rng := rand.New(rand.NewPCG(uint64(100*p), 59))
		for gi := range 12 {
			build := workload.GNP(rng, 9, p)
			opt, err := clustering.OptimalCost(workload.BuildGraph(build))
			if err != nil {
				t.Fatal(err)
			}
			var cost stats.Series
			for r := range 60 {
				m := clustering.New(uint64(1000*gi + r))
				if _, err := m.ApplyAll(build); err != nil {
					t.Fatal(err)
				}
				cost.ObserveInt(m.Cost())
			}
			if cost.Mean() > 3*float64(opt)+4*cost.StdErr() {
				t.Errorf("G(9, %.1f) #%d: mean cost %.3f ± %.3f, want ≤ 3·OPT = %d",
					p, gi, cost.Mean(), cost.StdErr(), 3*opt)
			}
		}
	}
}

// TestPaperMatchingThreePaths checks §5 Example 2: on disjoint 3-edge
// paths the maintained matching takes the middle edge alone with
// probability 1/3 and both outer edges otherwise, so E[|M|] = 5/3 per
// path (5n/12 on n nodes), against a worst case of one edge per path.
func TestPaperMatchingThreePaths(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	for _, paths := range []int{3, 10, 30} {
		var size stats.Series
		for s := range 200 {
			m := matching.New(uint64(10000*paths + s))
			if _, err := m.ApplyAll(workload.ThreePaths(paths)); err != nil {
				t.Fatal(err)
			}
			size.ObserveInt(len(m.Matching()))
		}
		if want := 5 * float64(paths) / 3; math.Abs(size.Mean()-want) > 4*size.StdErr() {
			t.Errorf("%d paths: E[|M|] = %.3f ± %.3f, want 5/3 per path = %.3f",
				paths, size.Mean(), size.StdErr(), want)
		}
	}
}

// TestPaperColoringExample checks §5 Example 3. Random greedy 2-colors
// K_{n/2,n/2} minus a perfect matching with probability 1 - O(1/n): the
// exact value is 1 - 2/n (all n! orders give it for n = 6 and 8), checked
// within a binomial 4σ band. The (Δ+1) blow-up maintainer, which does not
// simulate greedy coloring, stays a proper coloring within its palette
// after every change.
func TestPaperColoringExample(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	const runs = 400
	for _, n := range []int{8, 16, 32} {
		g := workload.BuildGraph(workload.BipartiteMinusMatching(n))
		two := 0
		for s := range runs {
			used := map[int]bool{}
			for _, c := range core.GreedyColoring(g, order.New(uint64(100000*n+s))) {
				used[c] = true
			}
			if len(used) == 2 {
				two++
			}
		}
		p := 1 - 2/float64(n)
		sigma := math.Sqrt(p * (1 - p) / runs)
		if got := float64(two) / runs; math.Abs(got-p) > 4*sigma {
			t.Errorf("n=%d: greedy 2-colored %.4f of %d orders, want 1 - 2/n = %.4f ± %.4f (4σ)", n, got, runs, p, 4*sigma)
		}
	}
	for _, palette := range []int{3, 6, 12} {
		m, err := coloring.New(uint64(palette), palette)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range workload.Path(15) {
			if _, err := m.Apply(c); err != nil {
				t.Fatal(err)
			}
			if err := m.Check(); err != nil {
				t.Fatalf("palette %d: %v", palette, err)
			}
		}
		if used := m.ColorsUsed(); used > palette {
			t.Errorf("palette %d: %d colors used", palette, used)
		}
	}
}

// TestPaperLazyPriorityBits checks the §1.1 bit-complexity remark (after
// Métivier et al.) on the priorities Algorithm 2 actually draws: ordering
// the two endpoints of an inserted edge needs 2 revealed bits in
// expectation, where the eager protocol ships both full 64-bit priorities.
func TestPaperLazyPriorityBits(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	const n = 300
	rng := rand.New(rand.NewPCG(14, 67))
	eng := protocol.New(14)
	if _, err := eng.ApplyAll(workload.GNP(rng, n, 8.0/n)); err != nil {
		t.Fatal(err)
	}
	var lazy stats.Series
	for _, c := range workload.EdgeChurn(rng, eng.Graph(), 600) {
		rep, err := eng.Apply(c)
		if err != nil {
			t.Fatal(err)
		}
		if c.Kind != graph.EdgeInsert {
			continue
		}
		if rep.Bits < 2*64 {
			t.Errorf("edge insert %d-%d: eager recovery sent %d bits, want ≥ two 64-bit priorities", c.U, c.V, rep.Bits)
		}
		pu, _ := eng.Order().Priority(c.U)
		pv, _ := eng.Order().Priority(c.V)
		lazy.ObserveInt(bitorder.PairBits(pu, pv))
	}
	if math.Abs(lazy.Mean()-2) > 4*lazy.StdErr() {
		t.Errorf("lazy revelation: %.3f ± %.3f bits per inserted edge, want 2", lazy.Mean(), lazy.StdErr())
	}
}

// TestPaperBatchRecovery checks the batched extension of the §6 open
// question: recovering once from k edge changes adjusts no more nodes than
// k single-change recoveries (both end at the same greedy MIS, and the
// batch skips flip-and-flip-back work), and E[|S|] of the batch stays
// within k times Theorem 1's per-change bound.
func TestPaperBatchRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	const n = 150
	for _, k := range []int{1, 4, 16} {
		var ssize stats.Series
		for trial := range 30 {
			seed := uint64(100000*k + trial)
			rng := rand.New(rand.NewPCG(seed, 71))
			build := workload.GNP(rng, n, 8.0/n)
			batch := workload.EdgeChurn(rng, workload.BuildGraph(build), k)
			seq := core.NewTemplateWithOrder(order.New(seed))
			bat := core.NewTemplateWithOrder(order.New(seed))
			if _, err := seq.ApplyAll(build); err != nil {
				t.Fatal(err)
			}
			if _, err := bat.ApplyBatch(build); err != nil {
				t.Fatal(err)
			}
			rs, err := seq.ApplyAll(batch)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := bat.ApplyBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if rb.Adjustments > rs.Adjustments {
				t.Errorf("k=%d trial %d: batch adjusted %d nodes, sequential %d", k, trial, rb.Adjustments, rs.Adjustments)
			}
			ssize.ObserveInt(rb.SSize)
		}
		if ssize.Mean() > float64(k)+4*ssize.StdErr() {
			t.Errorf("k=%d: batch E[|S|] = %.3f ± %.3f, want ≤ k", k, ssize.Mean(), ssize.StdErr())
		}
	}
}
