// Package oracle holds the brute-force reference computations the benchmark
// checks the program against. It imports nothing from the program: inputs
// are converted into the plain types below, so a fault shared by the
// program's packages cannot hide in the oracle too.
package oracle

import "strings"

// Edge is a directed labeled edge between vertex indices.
type Edge struct {
	From, To int
	Label    string
}

// Graph is a certain directed labeled graph.
type Graph struct {
	Labels []string
	Edges  []Edge
}

// Choice is one candidate label of an uncertain vertex.
type Choice struct {
	Label string
	P     float64
}

// UGraph is an uncertain graph: each vertex carries mutually exclusive
// candidate labels; edges are certain.
type UGraph struct {
	Choices [][]Choice
	Edges   []Edge
}

// match reports whether two labels are compatible: equal, or either one a
// '?'-prefixed wildcard.
func match(a, b string) bool {
	return a == b || strings.HasPrefix(a, "?") || strings.HasPrefix(b, "?")
}

// Worlds returns the number of possible worlds of g.
func (g UGraph) Worlds() int {
	n := 1
	for _, c := range g.Choices {
		n *= len(c)
	}
	return n
}

// SimP enumerates every possible world of g and returns the total
// probability of the worlds within edit distance tau of q, together with
// the smallest such distance (-1 when no world is within tau).
func SimP(q Graph, g UGraph, tau int) (p float64, minDist int) {
	minDist = -1
	pick := make([]int, len(g.Choices))
	w := Graph{Labels: make([]string, len(g.Choices)), Edges: g.Edges}
	for {
		prob := 1.0
		for v, c := range pick {
			w.Labels[v] = g.Choices[v][c].Label
			prob *= g.Choices[v][c].P
		}
		if d, ok := WithinGED(q, w, tau); ok {
			p += prob
			if minDist < 0 || d < minDist {
				minDist = d
			}
		}
		// Mixed-radix increment over the label choices.
		v := 0
		for ; v < len(pick); v++ {
			pick[v]++
			if pick[v] < len(g.Choices[v]) {
				break
			}
			pick[v] = 0
		}
		if v == len(pick) {
			return p, minDist
		}
	}
}

// WithinGED returns the graph edit distance between a and b when it is at
// most tau (ok true), under unit-cost vertex and edge insertion, deletion
// and relabeling. It tries every injective partial mapping of a's vertices
// onto b's, cutting a branch only once its accumulated cost exceeds tau.
func WithinGED(a, b Graph, tau int) (dist int, ok bool) {
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	// Each edit changes the vertex count or the edge count by at most one.
	if abs(len(a.Labels)-len(b.Labels))+abs(len(a.Edges)-len(b.Edges)) > tau {
		return 0, false
	}
	aAdj := adjacency(a)
	bAdj := adjacency(b)
	img := make([]int, len(a.Labels))
	used := make([]bool, len(b.Labels))
	best := tau + 1

	var visit func(u, cost int)
	visit = func(u, cost int) {
		if cost >= best {
			return
		}
		if u == len(a.Labels) {
			// Insert every unmapped b vertex and every b edge touching one.
			for _, in := range used {
				if !in {
					cost++
				}
			}
			for _, e := range b.Edges {
				if !used[e.From] || !used[e.To] {
					cost++
				}
			}
			if cost < best {
				best = cost
			}
			return
		}
		for v := -1; v < len(b.Labels); v++ {
			if v >= 0 && used[v] {
				continue
			}
			c := cost
			switch {
			case v < 0:
				c++ // delete u
			case !match(a.Labels[u], b.Labels[v]):
				c++ // relabel u
			}
			img[u] = v
			for p := 0; p < u; p++ {
				c += edgeCost(aAdj, bAdj, u, p, v, img[p])
				c += edgeCost(aAdj, bAdj, p, u, img[p], v)
			}
			if v >= 0 {
				used[v] = true
			}
			visit(u+1, c)
			if v >= 0 {
				used[v] = false
			}
		}
	}
	visit(0, 0)
	if best > tau {
		return 0, false
	}
	return best, true
}

func adjacency(g Graph) map[[2]int]string {
	m := make(map[[2]int]string, len(g.Edges))
	for _, e := range g.Edges {
		m[[2]int{e.From, e.To}] = e.Label
	}
	return m
}

// edgeCost is the cost of turning the a-edge slot x→y into the b-edge slot
// ix→iy (ix or iy negative when the vertex was deleted).
func edgeCost(aAdj, bAdj map[[2]int]string, x, y, ix, iy int) int {
	la, inA := aAdj[[2]int{x, y}]
	if ix < 0 || iy < 0 {
		if inA {
			return 1
		}
		return 0
	}
	lb, inB := bAdj[[2]int{ix, iy}]
	switch {
	case inA && inB:
		if match(la, lb) {
			return 0
		}
		return 1
	case inA != inB:
		return 1
	}
	return 0
}
