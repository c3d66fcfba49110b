package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"simjoin/internal/nlq"
	"simjoin/internal/qa"
	"simjoin/internal/sparql"
	"simjoin/internal/workload"
)

const (
	askSetups = 30
	// askHoldout questions are drawn per seed, enough that the mix of easy
	// and hard questions varies little between seeds; askDecoration of them
	// carry filler words, as in Table 4. askWarm of them warm the caches
	// at setup.
	askHoldout = 1000
	askWarm    = 100
	// askRecorded questions are answered again after the run through a
	// recording engine, to check every query the system executes.
	askRecorded   = 200
	askDecoration = 0.2
	askMinPhi     = 0.5
)

// askOutcome is what answering one question gave.
type askOutcome struct {
	res       []sparql.Binding
	err       error
	abstained bool // the error is "no template reaches phi"
}

// askQALD answers a seeded holdout of QALD-3-like questions through
// qa.TemplateSystem.Answer (φ ≥ 0.5), one caller in a closed loop, with
// templates learned at setup exactly as rdfqa learns them. One operation is
// one answer; a round answers the whole holdout once.
func askQALD(r *run) error {
	var (
		setup []float64
		m     *qaldModel
		ts    *qa.TemplateSystem
		hold  []workload.Question
	)
	for i := 0; i < askSetups; i++ {
		m, ts = nil, nil
		runtime.GC() // each setup starts from the same heap
		t0 := time.Now()
		mm, err := trainQALD(2)
		if err != nil {
			return err
		}
		kb := mm.w.KB
		tsys := &qa.TemplateSystem{Store: mm.store, Lex: kb.Lexicon, KB: kb.Store, MinPhi: askMinPhi}
		setup = append(setup, time.Since(t0).Seconds())
		m, ts = mm, tsys
	}
	hold = m.w.HoldoutQuestions(r.seed, askHoldout, askDecoration)
	for _, q := range hold[:askWarm] { // warm-up
		ts.Answer(q.Text)
	}

	outcomes := make([]askOutcome, len(hold))
	var lat []float64
	first := true
	c0, _ := mallocs()
	rounds := r.measure(1, func() {
		for i, q := range hold {
			t0 := time.Now()
			res, err := ts.Answer(q.Text)
			lat = append(lat, ms(time.Since(t0)))
			r.op(lat[len(lat)-1], true) // see the abstention check below
			if first {
				outcomes[i] = askOutcome{res: res, err: err}
			} else {
				o := outcomes[i]
				r.expect((err == nil) == (o.err == nil) && sameBindings(res, o.res), "question %q answered differently across rounds", q.Text)
			}
		}
		first = false
	})
	c1, _ := mallocs()
	// An error is an abstention only when no template matches the question
	// at all; any other error fails the operation in every round.
	for i, q := range hold {
		if outcomes[i].err != nil {
			_, merr := m.store.BestMatch(q.Text, ts.Lex, ts.MinPhi)
			outcomes[i].abstained = merr != nil
			for k := 0; !outcomes[i].abstained && k < rounds; k++ {
				r.failRecorded(k*len(hold) + i)
			}
		}
	}

	answered, abstained, correct := checkAnswers(r, m, ts, hold, outcomes)
	fmt.Fprintf(os.Stderr, "perfbench: |D|=%d |U|=%d KB=%d triples, %d templates; holdout %d: %d answered, %d abstained, %d correct\n",
		len(m.p.D), len(m.p.U), m.w.KB.Store.Len(), m.store.Len(), len(hold), answered, abstained, correct)

	fmt.Fprintf(os.Stderr, "perfbench: set-ups (s): %.4f\n", setup)
	r.endToEnd("setup_s", "s", median(setup))
	r.reportOps()
	if !r.traced {
		return nil
	}

	r.perLayer("workload.generate_ms", "ms", m.genMS)
	r.perLayer("nlq.interpret_ms", "ms", m.interpMS)
	r.perLayer("core.cold_join_ms", "ms", m.joinMS)
	r.perLayer("qa.allocs_per_ask", "count", float64(c1-c0)/float64(len(lat)))
	r.perLayer("qa.ask_p99_ms", "ms", p99(lat))
	r.perLayer("qa.answered", "count", float64(answered))
	r.perLayer("qa.abstained", "count", float64(abstained))
	r.perLayer("qa.correct", "count", float64(correct))

	// Replay the first askRecorded questions three times untraced and three
	// times traced, alternately.
	sample := hold[:askRecorded]
	var plain, traced []time.Duration
	tot := &askReplay{eng: &recordingEngine{inner: qa.NewStoreEngine(ts.KB)}}
	r.tr = newTracer()
	for k := 0; k < 3; k++ {
		plain = append(plain, replayAsk(r, nil, ts, sample, outcomes, &askReplay{eng: &recordingEngine{inner: qa.NewStoreEngine(ts.KB)}}))
		traced = append(traced, replayAsk(r, r.tr, ts, sample, outcomes, tot))
	}
	total, self := r.tr.totals()
	asks := float64(3 * len(sample))
	r.perLayer("template.match_ms", "ms", ms(total["template.best_match"])/asks)
	// Store.BestMatch calls Template.MatchQuestion once for every template
	// in the store at this commit; package template counts no calls, so
	// this is the store's size, not a measurement of BestMatch.
	r.perLayer("template.match_calls", "count", float64(ts.Store.Len()))
	r.perLayer("nlq.deptree_us", "us", ms(total["nlq.deptree"])*1e3/asks)
	r.perLayer("nlq.extract_us", "us", ms(total["nlq.extract"])*1e3/asks)
	r.perLayer("template.instantiate_ms", "ms", ms(self["template.instantiate"])/asks)
	if tot.eng.queries > 0 {
		r.perLayer("sparql.exec_us", "us", ms(total["sparql.execute"])*1e3/float64(tot.eng.queries))
	}
	r.perLayer("sparql.queries_per_ask", "count", float64(tot.eng.queries)/asks)
	r.perLayer("sparql.rows_per_ask", "count", float64(tot.eng.rows)/asks)
	r.perLayer("trace.overhead_ms", "ms", ms(medianDuration(traced)-medianDuration(plain)))
	return nil
}

// checkAnswers checks the outcomes of the first round against the
// brute-force evaluator — every gold query, every answer, and every query
// executed for the first askRecorded questions — and counts answered,
// abstained and correct questions.
func checkAnswers(r *run, m *qaldModel, ts *qa.TemplateSystem, hold []workload.Question, outcomes []askOutcome) (answered, abstained, correct int) {
	bgp := newBGPOracle(m.w.KB.Store)
	rec := &recordingEngine{inner: qa.NewStoreEngine(m.w.KB.Store), keep: true}
	checker := *ts
	checker.Engine = rec
	for i, q := range hold {
		o := outcomes[i]
		// The gold answers, and the reference executor on the gold query.
		gold := bgp.eval(q.Gold)
		if res, err := sparql.Execute(m.w.KB.Store, q.Gold, 0); err != nil {
			r.violate("gold query %s: %v", q.Gold, err)
		} else {
			bgp.check(r, "gold query", q.Gold, res)
		}
		if o.err != nil {
			if o.abstained {
				abstained++
			}
			continue
		}
		answered++
		if valueSet(o.res) == goldSet(gold) {
			correct++
		}
		// The answer equals the brute-force evaluation of the query
		// Translate returns.
		tq, _, err := ts.Translate(q.Text)
		if err != nil {
			r.violate("question %q answered but Translate failed: %v", q.Text, err)
		} else {
			bgp.check(r, fmt.Sprintf("answer to %q", q.Text), tq, o.res)
		}
		// Every query the system runs for the first askRecorded
		// questions returns the brute-force rows.
		if i >= askRecorded {
			continue
		}
		rec.log = rec.log[:0]
		res, err := checker.Answer(q.Text)
		r.expect(err == nil && sameBindings(res, o.res), "question %q answered differently through a recording engine", q.Text)
		for _, e := range rec.log {
			bgp.check(r, "executed query", e.q, e.res)
		}
	}
	return answered, abstained, correct
}

// askReplay accumulates what replays of the holdout did.
type askReplay struct {
	eng *recordingEngine
}

// replayAsk answers the given holdout questions again through the layers'
// public functions: Store.BestMatch, then the match's verified
// instantiation with each query executed through a wrapping qa.Engine,
// which is what TemplateSystem.Answer does. The question analysis that
// each Template.MatchQuestion call repeats (nlq.BuildDepTree, nlq.Extract)
// is timed once per question on its own.
func replayAsk(r *run, tr *tracer, ts *qa.TemplateSystem, hold []workload.Question, outcomes []askOutcome, out *askReplay) time.Duration {
	out.eng.tr = tr
	start := time.Now()
	for i, q := range hold {
		root := tr.open("qa.answer", i, -1)
		id := tr.open("template.best_match", i, root)
		m, err := ts.Store.BestMatch(q.Text, ts.Lex, ts.MinPhi)
		tr.close(id)
		var res []sparql.Binding
		if err == nil {
			id = tr.open("template.instantiate", i, root)
			out.eng.trace, out.eng.parent = i, id
			_, res, err = m.InstantiateVerifiedWith(ts.Lex, func(q *sparql.Query) ([]sparql.Binding, error) {
				return out.eng.Execute(q, 0)
			}, 8)
			tr.close(id)
		}
		tr.close(root)
		o := outcomes[i]
		r.expect((err == nil) == (o.err == nil) && sameBindings(res, o.res), "replay answered %q differently", q.Text)

		id = tr.open("nlq.deptree", i, -1)
		nlq.BuildDepTree(q.Text, ts.Lex)
		tr.close(id)
		id = tr.open("nlq.extract", i, -1)
		nlq.Extract(q.Text, ts.Lex)
		tr.close(id)
	}
	return time.Since(start)
}
