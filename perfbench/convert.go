package main

import (
	"simjoin/internal/graph"
	"simjoin/internal/rdf"
	"simjoin/internal/sparql"
	"simjoin/internal/ugraph"

	"simjoin/perfbench/oracle"
)

// The converters below copy program values into the oracle's plain types
// through public accessors only.

func oracleGraph(g *graph.Graph) oracle.Graph {
	o := oracle.Graph{Labels: make([]string, g.NumVertices())}
	for v := range o.Labels {
		o.Labels[v] = g.VertexLabel(v)
	}
	for _, e := range g.Edges() {
		o.Edges = append(o.Edges, oracle.Edge{From: e.From, To: e.To, Label: e.Label})
	}
	return o
}

func oracleUGraph(g *ugraph.Graph) oracle.UGraph {
	o := oracle.UGraph{Choices: make([][]oracle.Choice, g.NumVertices())}
	for v := range o.Choices {
		for _, l := range g.Labels(v) {
			o.Choices[v] = append(o.Choices[v], oracle.Choice{Label: l.Name, P: l.P})
		}
	}
	for _, e := range g.Edges() {
		o.Edges = append(o.Edges, oracle.Edge{From: e.From, To: e.To, Label: e.Label})
	}
	return o
}

func oracleKB(st *rdf.Store) []oracle.Triple {
	ts := st.Triples()
	out := make([]oracle.Triple, len(ts))
	for i, t := range ts {
		out[i] = oracle.Triple{t.S, t.P, t.O}
	}
	return out
}

func oracleQuery(q *sparql.Query) oracle.Query {
	o := oracle.Query{Vars: q.Vars, Distinct: q.Distinct}
	term := func(t sparql.Term) oracle.Term { return oracle.Term{Var: t.IsVar(), Value: t.Value} }
	for _, p := range q.Patterns {
		o.Patterns = append(o.Patterns, oracle.Pattern{term(p.S), term(p.P), term(p.O)})
	}
	return o
}

// rows renders the program's bindings for q in the oracle's canonical form.
func rows(q *sparql.Query, bs []sparql.Binding) []string {
	maps := make([]map[string]string, len(bs))
	for i, b := range bs {
		maps[i] = b
	}
	return oracle.Rows(maps, oracleQuery(q).Projection())
}
