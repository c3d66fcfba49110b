package oracle

import "testing"

func chain(labels []string, edge string) Graph {
	g := Graph{Labels: labels}
	for i := 1; i < len(labels); i++ {
		g.Edges = append(g.Edges, Edge{From: i - 1, To: i, Label: edge})
	}
	return g
}

func TestWithinGED(t *testing.T) {
	ab := chain([]string{"A", "B"}, "p")
	cases := []struct {
		name string
		a, b Graph
		tau  int
		want int // -1: beyond tau
	}{
		{"identical", ab, ab, 0, 0},
		{"relabel vertex", ab, chain([]string{"A", "C"}, "p"), 1, 1},
		{"relabel beyond tau", ab, chain([]string{"A", "C"}, "p"), 0, -1},
		{"wildcard vertex", chain([]string{"?x", "B"}, "p"), ab, 0, 0},
		{"wildcard edge", chain([]string{"A", "B"}, "?p"), ab, 0, 0},
		{"relabel edge", ab, chain([]string{"A", "B"}, "q"), 1, 1},
		{"insert vertex", Graph{Labels: []string{"A", "B"}, Edges: ab.Edges}, Graph{Labels: []string{"A", "B", "C"}, Edges: ab.Edges}, 1, 1},
		{"insert vertex and edge", ab, chain([]string{"A", "B", "C"}, "p"), 2, 2},
		{"insert vertex and edge beyond tau", ab, chain([]string{"A", "B", "C"}, "p"), 1, -1},
		{"reversed edge", ab, Graph{Labels: []string{"A", "B"}, Edges: []Edge{{1, 0, "p"}}}, 2, 2},
		{"reversed edge beyond tau", ab, Graph{Labels: []string{"A", "B"}, Edges: []Edge{{1, 0, "p"}}}, 1, -1},
		{"empty to vertex", Graph{}, Graph{Labels: []string{"A"}}, 1, 1},
		// Swapped labels: the best mapping crosses the vertices over, so the
		// edge reverses instead of both labels changing.
		{"swapped labels", ab, chain([]string{"B", "A"}, "p"), 2, 2},
		{"star with wildcard centre", Graph{Labels: []string{"?x", "A", "B"}, Edges: []Edge{{0, 1, "p"}, {0, 2, "q"}}},
			Graph{Labels: []string{"C", "B", "A"}, Edges: []Edge{{0, 2, "p"}, {0, 1, "q"}}}, 0, 0},
	}
	for _, c := range cases {
		d, ok := WithinGED(c.a, c.b, c.tau)
		switch {
		case c.want < 0 && ok:
			t.Errorf("%s: got distance %d, want beyond tau %d", c.name, d, c.tau)
		case c.want >= 0 && (!ok || d != c.want):
			t.Errorf("%s: got (%d, %v), want %d", c.name, d, ok, c.want)
		}
		// Edit distance is symmetric under unit costs.
		d2, ok2 := WithinGED(c.b, c.a, c.tau)
		if ok2 != ok || (ok && d2 != d) {
			t.Errorf("%s: asymmetric: (%d,%v) vs (%d,%v)", c.name, d, ok, d2, ok2)
		}
	}
}

func TestSimP(t *testing.T) {
	g := UGraph{
		Choices: [][]Choice{{{"A", 0.6}, {"B", 0.3}}, {{"C", 1}}},
		Edges:   []Edge{{0, 1, "p"}},
	}
	if n := g.Worlds(); n != 2 {
		t.Fatalf("Worlds = %d, want 2", n)
	}
	q := chain([]string{"A", "C"}, "p")
	if p, d := SimP(q, g, 0); p != 0.6 || d != 0 {
		t.Errorf("tau 0: SimP = (%v, %d), want (0.6, 0)", p, d)
	}
	if p, d := SimP(q, g, 1); p < 0.9-1e-12 || p > 0.9+1e-12 || d != 0 {
		t.Errorf("tau 1: SimP = (%v, %d), want (0.9, 0)", p, d)
	}
	// Only the B world is within tau of a B-C query; its distance is 0.
	if p, d := SimP(chain([]string{"B", "C"}, "p"), g, 0); p != 0.3 || d != 0 {
		t.Errorf("B query: SimP = (%v, %d), want (0.3, 0)", p, d)
	}
	// No world within tau.
	if p, d := SimP(chain([]string{"X", "Y"}, "q"), g, 1); p != 0 || d != -1 {
		t.Errorf("far query: SimP = (%v, %d), want (0, -1)", p, d)
	}
	// Three uncertain vertices: 2×3×1 worlds, the matching world's mass is
	// the product of its choices.
	g3 := UGraph{
		Choices: [][]Choice{{{"A", 0.5}, {"B", 0.5}}, {{"C", 0.2}, {"D", 0.3}, {"E", 0.5}}, {{"F", 1}}},
		Edges:   []Edge{{0, 1, "p"}, {1, 2, "q"}},
	}
	if n := g3.Worlds(); n != 6 {
		t.Fatalf("Worlds = %d, want 6", n)
	}
	want := 0.5 * 0.3
	q3 := Graph{Labels: []string{"A", "D", "F"}, Edges: g3.Edges}
	if p, d := SimP(q3, g3, 0); p < want-1e-12 || p > want+1e-12 || d != 0 {
		t.Errorf("g3: SimP = (%v, %d), want (%v, 0)", p, d, want)
	}
}
