package core

import (
	"repro/internal/bitvec"
	"repro/internal/graph"
)

// hlevel is one level of a TIMER hierarchy. Level index k (1-based) has
// labels of width dimGa−(k−1): the k−1 least significant permuted digits
// have been cut off by contraction. Labels are unique per level. A level
// holds no graph of its own: its coarse graph is read through the
// Scratch's levelGraph, which materializes one only when a level has
// halved (see levelGraph.descend).
//
// All slices are owned by the enclosing Scratch and reused across
// hierarchies.
type hlevel struct {
	labels []bitvec.Label
	// parent maps this level's vertices to the next coarser level's
	// vertices (unset on the topmost level).
	parent []int32
	// swaps counts the label swaps applied on this level (reporting);
	// gain accumulates their exact Coco+ deltas (all ≤ 0).
	swaps int
	gain  int64
}

// levelGraph presents the coarse graph of the current hierarchy level
// without building it. mg is a materialized graph — the application
// graph or an earlier level's contraction — and of maps mg's vertices to
// the level's vertices. A level vertex stands for its members, the mg
// vertices it contracts, listed in members[start[c]:start[c+1]]. The
// coarse edge weight between level vertices c ≠ d is the summed weight
// of the mg edges between their members, and the mg edges inside one
// member set are exactly the ones contraction drops.
//
// Contracted graphs live in two ping-pong CSR buffers, so a Scratch
// retains at most two graphs whatever dimGa is.
type levelGraph struct {
	mg      *graph.Graph
	of      []int32
	start   []int32
	members []int32
	bufs    [2]graph.Graph
}

// reset makes g the materialized graph of the current level: the
// application graph at level 0, or a level's fresh contraction.
func (lg *levelGraph) reset(g *graph.Graph) {
	lg.mg = g
	lg.of = graph.Resize(lg.of, g.N())
	for x := range lg.of {
		lg.of[x] = int32(x)
	}
}

// descend moves the view one level up: parent maps the previous level's
// vertices to the n vertices of the new one. The coarse graph is built —
// by contracting mg with the composed map into the spare buffer — only
// once the new level has at most half of mg's vertices. On the paper's
// deep hierarchies most levels merge only a few vertices, and building
// each of them would copy nearly the whole graph per level.
func (lg *levelGraph) descend(parent []int32, n int, c *graph.Contractor) {
	for x, v := range lg.of {
		lg.of[x] = parent[v]
	}
	if 2*n > lg.mg.N() {
		return
	}
	dst := &lg.bufs[0]
	if lg.mg == dst {
		dst = &lg.bufs[1]
	}
	c.ContractInto(dst, lg.mg, lg.of, n)
	lg.reset(dst)
}

// gather groups mg's vertices by their level vertex (a counting sort
// over of) for a level of n vertices.
func (lg *levelGraph) gather(n int) {
	lg.start = graph.Resize(lg.start, n+1)
	clear(lg.start)
	for _, c := range lg.of {
		lg.start[c+1]++
	}
	for c := 0; c < n; c++ {
		lg.start[c+1] += lg.start[c]
	}
	lg.members = graph.Resize(lg.members, len(lg.of))
	for x, c := range lg.of {
		lg.members[lg.start[c]] = int32(x)
		lg.start[c]++
	}
	// Each start[c] now holds the original start[c+1]; shift back.
	copy(lg.start[1:], lg.start[:n])
	lg.start[0] = 0
}

// pull sums ω(e)·(1−2b_w) over the coarse edges {c, w} of level vertex
// c, where b_w is w's last digit, skipping the edges into u and v (c is
// one of them). The edges of c's members that lead back into c itself
// are the ones contraction drops.
func (lg *levelGraph) pull(labels []bitvec.Label, c, u, v int) int64 {
	var acc int64
	for _, x := range lg.members[lg.start[c]:lg.start[c+1]] {
		nbr, ew := lg.mg.Neighbors(int(x))
		for i, y := range nbr {
			w := int(lg.of[y])
			if w == u || w == v {
				continue
			}
			acc += ew[i] * (1 - 2*int64(labels[w]&1))
		}
	}
	return acc
}

// group computes the contraction of Algorithm 1 for level lv: vertices
// whose labels agree on all but the last digit merge, and every label
// loses its last digit. It runs before the level's swap pass, which is
// exact because a swap only exchanges labels between siblings, and
// siblings share their prefix. It fills lv.parent (coarse ids in
// first-occurrence order), next.labels, and sc.partner: each vertex's
// sibling, or −1 if it has none.
func (sc *Scratch) group(lv, next *hlevel) {
	n := len(lv.labels)
	sc.byLabel.Reset(n)
	lv.parent = graph.Resize(lv.parent, n)
	sc.partner = graph.Resize(sc.partner, n)
	next.labels = next.labels[:0]
	for v, l := range lv.labels {
		pref := l >> 1
		u, existed := sc.byLabel.PutIfAbsent(pref, int32(v))
		if existed {
			lv.parent[v] = lv.parent[u]
			sc.partner[u], sc.partner[v] = int32(v), u
			continue
		}
		lv.parent[v] = int32(len(next.labels))
		next.labels = append(next.labels, pref)
		sc.partner[v] = -1
	}
	next.swaps, next.gain = 0, 0
}

// swapPass implements lines 10-12 of Algorithm 1 on one level: for every
// sibling pair u, v (labels agree on all but the least significant
// digit), swap their labels iff that decreases Coco+ on this level's
// graph, read through lg. sign is the Coco+ sign of the digit being
// decided at this level (+1 if the underlying original digit belongs to
// lp, −1 for le, 0 for an ablated digit, where no swap can gain).
// partner is the level's sibling array from group; a swap leaves it
// valid, since the pair stays the pair.
// It returns the number of swaps applied and their summed Coco+ delta,
// so callers maintain the level objective incrementally instead of
// re-walking all edges.
func swapPass(lg *levelGraph, labels []bitvec.Label, partner []int32, sign int) (int, int64) {
	if sign == 0 {
		return 0, 0
	}
	swaps := 0
	var gain int64
	for u, v32 := range partner {
		if v32 < 0 || labels[u]&1 != 0 {
			continue // no sibling, or visit the pair from its even member
		}
		v := int(v32)
		if delta := siblingSwapDelta(lg, labels, u, v, sign); delta < 0 {
			labels[u], labels[v] = labels[v], labels[u]
			swaps++
			gain += delta
		}
	}
	return swaps, gain
}

// siblingSwapDelta computes the exact Coco+ change from swapping the
// labels of siblings u (last digit 0) and v (last digit 1):
//
//	delta = sign · [ Σ_{w∈N(u)\{v}} ω(u,w)(1−2b_w)
//	               + Σ_{w∈N(v)\{u}} ω(v,w)(2b_w−1) ]
//
// where b_w is w's last digit. Only the last digit can contribute since
// siblings agree on every other digit. The sums run over the member
// edges of u and v in lg's materialized graph; being integer sums they
// equal the sums over the coarse graph's aggregated edges exactly.
func siblingSwapDelta(lg *levelGraph, labels []bitvec.Label, u, v, sign int) int64 {
	return int64(sign) * (lg.pull(labels, u, u, v) - lg.pull(labels, v, u, v))
}

// suffixTrie is a counting trie over the label set L, keyed by least
// significant digits first. count[node] is the number of *unclaimed*
// labels whose suffix reaches that node. It realizes the existence check
// of line 10 in Algorithm 2 with availability tracking: a digit is
// viable only while an unclaimed label with the resulting suffix
// remains, which makes assemble() a bijection onto L by construction
// (every vertex claims exactly one label and claims are decremented
// along the walk). The node arrays are retained across build calls, so
// a warm trie rebuilds without allocating.
type suffixTrie struct {
	child [][2]int32
	count []int32
}

// build (re)initializes the trie over labels of the given width.
func (t *suffixTrie) build(labels []bitvec.Label, dim int) {
	t.child = append(t.child[:0], [2]int32{-1, -1})
	t.count = append(t.count[:0], 0)
	for _, l := range labels {
		cur := int32(0)
		t.count[0]++
		for d := 0; d < dim; d++ {
			b := l.Bit(d)
			next := t.child[cur][b]
			if next < 0 {
				next = int32(len(t.child))
				t.child = append(t.child, [2]int32{-1, -1})
				t.count = append(t.count, 0)
				t.child[cur][b] = next
			}
			cur = next
			t.count[cur]++
		}
	}
}

func newSuffixTrie(labels []bitvec.Label, dim int) *suffixTrie {
	t := &suffixTrie{}
	t.build(labels, dim)
	return t
}

// step returns the child of node along digit b if it still has unclaimed
// labels, or -1.
func (t *suffixTrie) step(node int32, b uint64) int32 {
	c := t.child[node][b]
	if c >= 0 && t.count[c] > 0 {
		return c
	}
	return -1
}

// claim decrements the availability along a finished walk (the nodes the
// caller visited, in order).
func (t *suffixTrie) claim(path []int32) {
	t.count[0]--
	for _, n := range path {
		t.count[n]--
	}
}

// buildHierarchy runs the inner loop of Algorithm 1 (lines 8-14) in the
// permuted label space: alternating swap passes and contractions, from
// the full labels down to width-2 labels (or earlier if the graph
// degenerates to a single vertex). The level-0 labels are initialized
// from sc.perm; signs[j] is the Coco+ sign of permuted digit j. Levels
// land in sc.levels[:sc.nlev], finest first.
func (sc *Scratch) buildHierarchy(ga *graph.Graph, dimGa int, signs []int8, swapRounds int) {
	if swapRounds < 1 {
		swapRounds = 1
	}
	lv0 := sc.level(0)
	lv0.labels = graph.Resize(lv0.labels, len(sc.perm))
	copy(lv0.labels, sc.perm)
	lv0.swaps, lv0.gain = 0, 0
	sc.nlev = 1
	sc.lg.reset(ga)
	for k := 1; k <= dimGa-2; k++ {
		next := sc.level(sc.nlev)
		cur := &sc.levels[sc.nlev-1]
		n := len(cur.labels)
		if n <= 1 {
			break
		}
		if k > 1 {
			sc.lg.descend(sc.levels[sc.nlev-2].parent, n, &sc.contractor)
		}
		sc.group(cur, next)
		sc.lg.gather(n)
		for round := 0; round < swapRounds; round++ {
			s, d := swapPass(&sc.lg, cur.labels, sc.partner, int(signs[k-1]))
			cur.swaps += s
			cur.gain += d
			if s == 0 {
				break
			}
		}
		sc.nlev++
	}
}

// assemble implements Algorithm 2: derive a new fine labeling from the
// hierarchy, digit by digit. Digit 0 is each vertex's own (post-swap)
// last digit; digits 1..K−1 are inherited from the ancestors' last
// digits when the partial label stays inside the original label set L
// (tracked with the suffix trie), otherwise inverted; remaining digits
// follow the topmost ancestor's surviving label. The trie guarantees
// every emitted label belongs to L. The result lands in out (len = n);
// path is walk scratch with capacity ≥ dimGa.
func assemble(levels []hlevel, dimGa int, trie *suffixTrie, out []bitvec.Label, path []int32) {
	fine := &levels[0]
	n := len(fine.labels)
	K := len(levels)
	for v := 0; v < n; v++ {
		path = path[:0]
		lab := fine.labels[v]
		d0 := uint64(lab & 1)
		// The own last digit is always available: the multiset of digit-0
		// values in L matches the vertices' own digits exactly, and each
		// vertex only ever claims its own (paper: the LSB is inherited and
		// does not change).
		node := trie.step(0, d0)
		newLabel := bitvec.Label(d0)
		path = append(path, node)
		anc := int32(v)
		// Digits 1..K-1 from ancestors at levels 2..K (preferred digit =
		// ancestor's last digit; fall back to the inverse when no
		// unclaimed label matches).
		for k := 1; k < K; k++ {
			anc = levels[k-1].parent[anc]
			pref := uint64(levels[k].labels[anc] & 1)
			next := trie.step(node, pref)
			if next < 0 {
				pref = 1 - pref
				next = trie.step(node, pref)
			}
			newLabel |= bitvec.Label(pref) << uint(k)
			node = next
			path = append(path, node)
		}
		// Remaining digits K..dimGa-1 follow the topmost ancestor's
		// surviving label.
		top := levels[K-1].labels[anc]
		for d := K; d < dimGa; d++ {
			pref := uint64(top>>uint(d-K+1)) & 1
			next := trie.step(node, pref)
			if next < 0 {
				pref = 1 - pref
				next = trie.step(node, pref)
			}
			newLabel |= bitvec.Label(pref) << uint(d)
			node = next
			path = append(path, node)
		}
		trie.claim(path)
		out[v] = newLabel
	}
}

// repairDuplicates restores bijectivity onto the label set L when
// assemble produced collisions (possible because the existence check
// uses the fixed set L, see DESIGN.md): duplicate holders beyond the
// first keep-holder are reassigned to the unused labels, choosing for
// each orphan the free label minimizing its local Coco+ contribution.
// owner is the caller's reusable label index. Returns the number of
// repaired vertices (0 in the common case).
func repairDuplicates(g *graph.Graph, labels []bitvec.Label, all []bitvec.Label,
	lpMask, extMask uint64, owner *bitvec.LabelIndex) int {
	owner.Reset(len(labels))
	var orphans []int32
	for v, l := range labels {
		if _, dup := owner.PutIfAbsent(l, int32(v)); dup {
			orphans = append(orphans, int32(v))
		}
	}
	if len(orphans) == 0 {
		return 0
	}
	var free []bitvec.Label
	for _, l := range all {
		if _, used := owner.Get(l); !used {
			free = append(free, l)
		}
	}
	for _, v := range orphans {
		bestI := 0
		var bestCost int64 = 1 << 62
		for i, cand := range free {
			var cost int64
			nbr, ew := g.Neighbors(int(v))
			for j, u := range nbr {
				cost += ew[j] * int64(bitvec.SignedCost(cand, labels[u], lpMask, extMask))
			}
			if cost < bestCost {
				bestCost, bestI = cost, i
			}
		}
		labels[v] = free[bestI]
		free[bestI] = free[len(free)-1]
		free = free[:len(free)-1]
	}
	return len(orphans)
}
