package oracle

import (
	"sort"
	"strings"
)

// Triple is one knowledge-base fact.
type Triple [3]string

// Term is one position of a triple pattern: a variable (Value keeps its
// '?') or a constant.
type Term struct {
	Var   bool
	Value string
}

// Pattern is a triple pattern.
type Pattern [3]Term

// Query is a SELECT over a basic graph pattern. Vars ["*"] projects every
// variable.
type Query struct {
	Vars     []string
	Patterns []Pattern
	Distinct bool
}

// Eval evaluates the basic graph pattern by nested loops, one pattern after
// another in the order written, each loop running over the triples that
// match the pattern's constant terms, and returns one projected solution
// per row (deduplicated under DISTINCT) in canonical form: each row
// rendered as "?v=value" fields joined by tabs, variables in projection
// order, rows sorted.
func Eval(kb []Triple, q Query) []string {
	vars := q.Projection()
	cands := make([][]Triple, len(q.Patterns))
	for i, p := range q.Patterns {
		for _, t := range kb {
			if (p[0].Var || p[0].Value == t[0]) && (p[1].Var || p[1].Value == t[1]) && (p[2].Var || p[2].Value == t[2]) {
				cands[i] = append(cands[i], t)
			}
		}
	}
	var rows []string
	var extend func(i int, b map[string]string)
	extend = func(i int, b map[string]string) {
		if i == len(q.Patterns) {
			rows = append(rows, Row(b, vars))
			return
		}
		for _, t := range cands[i] {
			nb := b
			ok := true
			for k, term := range q.Patterns[i] {
				if !term.Var {
					continue
				}
				if v, bound := nb[term.Value]; bound {
					ok = v == t[k]
				} else {
					if len(nb) == len(b) {
						nb = clone(b)
					}
					nb[term.Value] = t[k]
				}
				if !ok {
					break
				}
			}
			if ok {
				extend(i+1, nb)
			}
		}
	}
	extend(0, map[string]string{})
	sort.Strings(rows)
	if q.Distinct {
		out := rows[:0]
		for i, r := range rows {
			if i == 0 || r != rows[i-1] {
				out = append(out, r)
			}
		}
		rows = out
	}
	return rows
}

// Projection returns the projected variables, expanding "*" to every
// variable in order of first appearance.
func (q Query) Projection() []string {
	if len(q.Vars) != 1 || q.Vars[0] != "*" {
		return q.Vars
	}
	var vars []string
	seen := map[string]bool{}
	for _, p := range q.Patterns {
		for _, t := range p {
			if t.Var && !seen[t.Value] {
				seen[t.Value] = true
				vars = append(vars, t.Value)
			}
		}
	}
	return vars
}

// Row renders one binding in the canonical form Eval returns.
func Row(b map[string]string, vars []string) string {
	f := make([]string, 0, len(vars))
	for _, v := range vars {
		if val, ok := b[v]; ok {
			f = append(f, v+"="+val)
		}
	}
	return strings.Join(f, "\t")
}

// Rows renders a result set canonically (sorted), for comparison with Eval.
func Rows(bs []map[string]string, vars []string) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = Row(b, vars)
	}
	sort.Strings(out)
	return out
}

func clone(b map[string]string) map[string]string {
	c := make(map[string]string, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}
