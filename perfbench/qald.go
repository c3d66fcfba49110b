package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"simjoin/internal/experiments"
	"simjoin/internal/qa"
	"simjoin/internal/rdf"
	"simjoin/internal/sparql"
	"simjoin/internal/template"
	"simjoin/internal/workload"

	"simjoin/perfbench/oracle"
)

// qaldModel is a QALD-3-like workload with the templates learned from it.
type qaldModel struct {
	w     *workload.QAWorkload
	p     *experiments.Pipeline
	store *template.Store
	// Setup breakdown, in milliseconds.
	genMS, interpMS, joinMS float64
}

// trainQALD generates the QALD-3-like workload with its question count
// multiplied by questionFactor and learns templates from it with
// experiments.DefaultJoinOptions: rdfqa trains with factor 2, simjoind with
// factor 1.
func trainQALD(questionFactor int) (*qaldModel, error) {
	cfg := workload.QALD3Config()
	cfg.Questions *= questionFactor
	t0 := time.Now()
	w, err := workload.GenerateQA(cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	p := experiments.Prepare(w)
	t2 := time.Now()
	pairs, _, err := p.Join(experiments.DefaultJoinOptions())
	if err != nil {
		return nil, err
	}
	store, _ := p.BuildTemplates(pairs)
	if store.Len() == 0 {
		return nil, fmt.Errorf("no templates learned from %d pairs", len(pairs))
	}
	return &qaldModel{w: w, p: p, store: store,
		genMS: ms(t1.Sub(t0)), interpMS: ms(t2.Sub(t1)), joinMS: ms(time.Since(t2))}, nil
}

// recordingEngine is a qa.Engine that passes every query to the reference
// executor and keeps what it ran; with a tracer, each execution is a span.
type recordingEngine struct {
	inner qa.Engine
	log   []executed
	keep  bool

	tr            *tracer
	trace, parent int
	queries, rows int64
}

type executed struct {
	q   *sparql.Query
	res []sparql.Binding
}

func (e *recordingEngine) Execute(q *sparql.Query, max int) ([]sparql.Binding, error) {
	id := e.tr.open("sparql.execute", e.trace, e.parent)
	res, err := e.inner.Execute(q, max)
	e.tr.close(id)
	e.queries++
	e.rows += int64(len(res))
	if e.keep && err == nil {
		e.log = append(e.log, executed{q, res})
	}
	return res, err
}

// bgpOracle evaluates queries by brute force over the knowledge base,
// caching by query text.
type bgpOracle struct {
	kb    []oracle.Triple
	cache map[string][]string
}

func newBGPOracle(st *rdf.Store) *bgpOracle {
	return &bgpOracle{kb: oracleKB(st), cache: map[string][]string{}}
}

func (o *bgpOracle) eval(q *sparql.Query) []string {
	key := q.String()
	if rows, ok := o.cache[key]; ok {
		return rows
	}
	rows := oracle.Eval(o.kb, oracleQuery(q))
	o.cache[key] = rows
	return rows
}

// check compares the program's result for q with the oracle's. Under a
// LIMIT the program may return any rows of the full result, so only their
// number and membership are checked.
func (o *bgpOracle) check(r *run, what string, q *sparql.Query, got []sparql.Binding) {
	want := o.eval(q)
	have := rows(q, got)
	if q.Limit == 0 {
		r.expect(slices.Equal(have, want), "%s: %d rows, brute force %d, for %s", what, len(have), len(want), q)
		return
	}
	n := q.Limit
	if len(want) < n {
		n = len(want)
	}
	all := map[string]int{}
	for _, row := range want {
		all[row]++
	}
	ok := len(have) == n
	for _, row := range have {
		all[row]--
		ok = ok && all[row] >= 0
	}
	r.expect(ok, "%s: %d rows not a LIMIT %d subset of the brute-force result of %s", what, len(have), q.Limit, q)
}

// valueSet flattens bindings into their set of values, the answer set the
// QALD evaluation compares (experiments.AnswerSet).
func valueSet(bs []sparql.Binding) string {
	seen := map[string]bool{}
	var vals []string
	for _, b := range bs {
		for _, v := range b {
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
	}
	sort.Strings(vals)
	return strings.Join(vals, "\n")
}

// goldSet is the gold query's answer set: the values of its first projected
// variable in the brute-force result.
func goldSet(rowsOf []string) string {
	seen := map[string]bool{}
	var vals []string
	for _, row := range rowsOf {
		first := strings.SplitN(row, "\t", 2)[0]
		if i := strings.IndexByte(first, '='); i >= 0 && !seen[first[i+1:]] {
			seen[first[i+1:]] = true
			vals = append(vals, first[i+1:])
		}
	}
	sort.Strings(vals)
	return strings.Join(vals, "\n")
}

func sameBindings(a, b []sparql.Binding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k, v := range a[i] {
			if w, ok := b[i][k]; !ok || w != v {
				return false
			}
		}
	}
	return true
}
