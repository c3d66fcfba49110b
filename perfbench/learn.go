package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"simjoin/internal/core"
	"simjoin/internal/experiments"
	"simjoin/internal/filter"
	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/template"
	"simjoin/internal/ugraph"
	"simjoin/internal/workload"

	"simjoin/perfbench/oracle"
)

// learnSetups is how many times learn-webq sets up; setup_s is the median.
const learnSetups = 30

// learnWebQ is the simjoin batch join in its CLI default configuration
// (SimJ+opt, τ=1, α=0.9, GN=10, mappings kept) on one worker over the
// WebQuestions-like workload at twice the CLI's webq size, followed by
// template generation from the result pairs. One operation is one pass.
func learnWebQ(r *run) error {
	opts := core.DefaultOptions()
	opts.Workers = 1

	var (
		setup, gen, interp []float64
		p                  *experiments.Pipeline
	)
	for i := 0; i < learnSetups; i++ {
		p = nil
		runtime.GC() // each setup starts from the same heap
		t0 := time.Now()
		w, err := webqWorkload(r.seed)
		if err != nil {
			return err
		}
		t1 := time.Now()
		p = experiments.Prepare(w)
		setup = append(setup, time.Since(t0).Seconds())
		gen = append(gen, ms(t1.Sub(t0)))
		interp = append(interp, ms(time.Since(t1)))
	}
	// The first pass in the process warms the caches; it is timed on its
	// own as the cold join.
	t0 := time.Now()
	pairs, _, err := core.Join(p.D, p.U, opts)
	if err != nil {
		return err
	}
	coldJoin := ms(time.Since(t0))
	p.BuildTemplates(pairs)

	var (
		joinMS, buildMS []float64
		allocs, allocMB []float64
		first           []core.Pair
		firstSt         core.Stats
		firstTpl        []string
		store           *template.Store
	)
	passes := r.measure(3, func() {
		// Every pass starts from a collected heap, as a fresh simjoin run
		// does, instead of paying for the previous pass's garbage.
		runtime.GC()
		c0, b0 := mallocs()
		t0 := time.Now()
		pairs, st, err := core.Join(p.D, p.U, opts)
		t1 := time.Now()
		c1, b1 := mallocs()
		t2 := time.Now()
		s, _ := p.BuildTemplates(pairs)
		t3 := time.Now()
		r.op(ms(t1.Sub(t0)+t3.Sub(t2)), err == nil)
		if err != nil {
			r.violate("core.Join: %v", err)
			return
		}
		joinMS = append(joinMS, ms(t1.Sub(t0)))
		buildMS = append(buildMS, ms(t3.Sub(t2)))
		allocs = append(allocs, float64(c1-c0))
		allocMB = append(allocMB, float64(b1-b0)/(1<<20))
		tpl := templateDigest(s)
		if first == nil {
			first, firstSt, firstTpl, store = pairs, st, tpl, s
			return
		}
		r.expect(samePairs(first, pairs), "pass %d returned different pairs than pass 1", len(joinMS))
		r.expect(slices.Equal(firstTpl, tpl), "pass %d built different templates than pass 1", len(joinMS))
	})
	if first == nil {
		return fmt.Errorf("learn-webq: no pass succeeded")
	}
	fmt.Fprintf(os.Stderr, "perfbench: |D|=%d |U|=%d KB=%d triples, %d result pairs, %d templates, %d passes\n",
		len(p.D), len(p.U), p.W.KB.Store.Len(), len(first), store.Len(), passes)
	checkJoin(r, p.D, p.U, first, firstSt, opts)
	checkOracleSample(r, p.D, p.U, first, opts, 60)

	fmt.Fprintf(os.Stderr, "perfbench: set-ups (s): %.4f\n", setup)
	r.endToEnd("setup_s", "s", median(setup))
	r.reportOps()
	if !r.traced {
		return nil
	}

	joinP50 := median(joinMS)
	r.perLayer("workload.generate_ms", "ms", median(gen))
	r.perLayer("nlq.interpret_ms", "ms", median(interp))
	r.perLayer("core.cold_join_ms", "ms", coldJoin)
	r.perLayer("core.join_ms", "ms", joinP50)
	r.perLayer("template.build_ms", "ms", median(buildMS))
	st := firstSt
	r.perLayer("core.pairs", "count", float64(st.Pairs))
	r.perLayer("filter.css_pruned", "count", float64(st.CSSPruned))
	r.perLayer("filter.group_pruned", "count", float64(st.ProbPruned))
	r.perLayer("core.candidates", "count", float64(st.Candidates))
	r.perLayer("core.results", "count", float64(st.Results))
	r.perLayer("ugraph.groups_built", "count", float64(st.GroupsBuilt))
	r.perLayer("ugraph.worlds", "count", float64(st.WorldsChecked))
	r.perLayer("ged.calls", "count", float64(st.GEDCalls))
	r.perLayer("ged.states", "count", float64(st.GEDStatesExpanded))
	r.perLayer("template.count", "count", float64(store.Len()))
	if st.Candidates > 0 {
		r.perLayer("core.results_per_candidate", "ratio", float64(st.Results)/float64(st.Candidates))
	}
	r.perLayer("core.allocs", "count", median(allocs))
	r.perLayer("core.alloc_mb", "MB", median(allocMB))

	// The layer ladder: replay every pair through the layers' public
	// functions, twice untraced and twice with a span around each call,
	// alternately.
	const replays = 2
	var plain, traced []time.Duration
	r.tr = newTracer()
	for k := 0; k < replays; k++ {
		for _, tr := range []*tracer{nil, r.tr} {
			rp := replayJoin(tr, p.D, p.U, opts)
			checkReplay(r, rp, first, st)
			if tr == nil {
				plain = append(plain, rp.wall)
			} else {
				traced = append(traced, rp.wall)
			}
		}
	}
	total, self := r.tr.totals()
	ladder := map[string]float64{
		"filter.sig_ms":    ms(total["filter.sig"]) / replays,
		"filter.css_ms":    ms(total["filter.css"]) / replays,
		"filter.group_ms":  ms(total["filter.group"]) / replays,
		"ugraph.worlds_ms": ms(self["verify"]) / replays,
		"ged.verify_ms":    ms(total["ged.compute"]) / replays,
	}
	explained := 0.0
	for name, v := range ladder {
		r.perLayer(name, "ms", v)
		explained += v
	}
	r.perLayer("core.unexplained_ms", "ms", joinP50-explained)
	r.perLayer("trace.overhead_ms", "ms", ms(medianDuration(traced)-medianDuration(plain)))
	return nil
}

// webqWorkload generates the WebQuestions-like workload exactly as
// `simjoin -workload webq -scale 2` does, then orders both sides by a
// permutation drawn from seed.
func webqWorkload(seed int64) (*workload.QAWorkload, error) {
	cfg := workload.WebQConfig(0.35)
	cfg.Questions = int(float64(cfg.Questions) * 2)
	cfg.ExtraQueries = int(float64(cfg.ExtraQueries) * 2)
	w, err := workload.GenerateQA(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.Sparql), func(i, j int) { w.Sparql[i], w.Sparql[j] = w.Sparql[j], w.Sparql[i] })
	rng.Shuffle(len(w.Questions), func(i, j int) { w.Questions[i], w.Questions[j] = w.Questions[j], w.Questions[i] })
	return w, nil
}

// templateDigest lists a store's templates with their support, in the
// store's own order.
func templateDigest(s *template.Store) []string {
	var out []string
	for _, t := range s.Templates() {
		out = append(out, fmt.Sprintf("%d %s", t.Support, t.Key()))
	}
	return out
}

func samePairs(a, b []core.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Q != y.Q || x.G != y.G || x.SimP != y.SimP || x.Distance != y.Distance || x.Verdict != y.Verdict || len(x.Mapping) != len(y.Mapping) {
			return false
		}
		for k := range x.Mapping {
			if x.Mapping[k] != y.Mapping[k] {
				return false
			}
		}
	}
	return true
}

// checkJoin checks the properties every join result must have: the Stats
// partitions, and every pair within the thresholds.
func checkJoin(r *run, d []*graph.Graph, u []*ugraph.Graph, pairs []core.Pair, st core.Stats, opts core.Options) {
	r.expect(st.Pairs == int64(len(d))*int64(len(u)), "Stats.Pairs %d != |D|·|U| %d", st.Pairs, len(d)*len(u))
	r.expect(st.CSSPruned+st.ProbPruned+st.Candidates == st.Pairs,
		"css %d + prob %d + candidates %d != pairs %d", st.CSSPruned, st.ProbPruned, st.Candidates, st.Pairs)
	r.expect(st.ExactPairs+st.SampledPairs+st.ApproxPairs+st.SkippedPairs == st.Candidates,
		"exact %d + sampled %d + approx %d + skipped %d != candidates %d",
		st.ExactPairs, st.SampledPairs, st.ApproxPairs, st.SkippedPairs, st.Candidates)
	r.expect(st.Results == int64(len(pairs)), "Stats.Results %d != %d pairs", st.Results, len(pairs))
	for _, pr := range pairs {
		r.expect(pr.SimP >= opts.Alpha, "pair (%d,%d): SimP %v < alpha %v", pr.Q, pr.G, pr.SimP, opts.Alpha)
		r.expect(pr.Distance >= 0 && pr.Distance <= opts.Tau, "pair (%d,%d): distance %d outside [0, %d]", pr.Q, pr.G, pr.Distance, opts.Tau)
	}
}

// Oracle sample limits: graphs small enough for exhaustive mappings.
const (
	oracleMaxVertices = 9
	oracleMaxWorlds   = 81
)

// checkOracleSample recomputes SimPτ by brute force for a seeded sample of
// up to perClass pairs of each kind — results, pairs the css bound prunes,
// pairs the group bound prunes, and candidates verification rejects — and
// checks the join's verdict on each.
func checkOracleSample(r *run, d []*graph.Graph, u []*ugraph.Graph, pairs []core.Pair, opts core.Options, perClass int) {
	rng := rand.New(rand.NewSource(r.seed*7919 + 17))
	small := func(qi, gi int) (oracle.Graph, oracle.UGraph, bool) {
		if d[qi].NumVertices() > oracleMaxVertices || u[gi].NumVertices() > oracleMaxVertices {
			return oracle.Graph{}, oracle.UGraph{}, false
		}
		g := oracleUGraph(u[gi])
		return oracleGraph(d[qi]), g, g.Worlds() <= oracleMaxWorlds
	}
	count := map[string]int{}

	for _, i := range rng.Perm(len(pairs)) {
		if count["result"] == perClass {
			break
		}
		pr := pairs[i]
		q, g, ok := small(pr.Q, pr.G)
		if !ok {
			continue
		}
		count["result"]++
		p, dist := oracle.SimP(q, g, opts.Tau)
		r.expect(p >= opts.Alpha-1e-9, "result (%d,%d): oracle SimP %v < alpha", pr.Q, pr.G, p)
		r.expect(pr.SimP <= p+1e-9, "result (%d,%d): SimP %v exceeds the oracle's %v", pr.Q, pr.G, pr.SimP, p)
		r.expect(dist >= 0 && dist <= pr.Distance, "result (%d,%d): distance %d, oracle's smallest %d", pr.Q, pr.G, pr.Distance, dist)
	}

	result := make(map[[2]int]bool, len(pairs))
	for _, pr := range pairs {
		result[[2]int{pr.Q, pr.G}] = true
	}
	css, group := filter.MustBound("css"), filter.MustBound("group")
	var sc filter.Scratch
	for draw := 0; draw < 200000; draw++ {
		if count["css"] == perClass && count["group"] == perClass && count["rejected"] == perClass {
			break
		}
		qi, gi := rng.Intn(len(d)), rng.Intn(len(u))
		if result[[2]int{qi, gi}] {
			continue
		}
		pc := filter.PairContext{QS: filter.NewQSig(d[qi]), GS: filter.NewGSig(u[gi]),
			Tau: opts.Tau, Alpha: opts.Alpha, GroupCount: opts.GroupCount, Scratch: &sc}
		class := "rejected"
		if css.Apply(&pc).Pruned {
			class = "css"
		} else if group.Apply(&pc).Pruned {
			class = "group"
		}
		if count[class] == perClass {
			continue
		}
		q, g, ok := small(qi, gi)
		if !ok {
			continue
		}
		count[class]++
		p, _ := oracle.SimP(q, g, opts.Tau)
		r.expect(p < opts.Alpha+1e-9, "%s pair (%d,%d) left out of the result: oracle SimP %v ≥ alpha", class, qi, gi, p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: oracle SimP checked on %d result, %d css-pruned, %d group-pruned, %d rejected pairs\n",
		count["result"], count["css"], count["group"], count["rejected"])
	// A class the sample could not fill would leave its check unchecked.
	for _, c := range []string{"result", "css", "group", "rejected"} {
		r.expect(count[c] == perClass, "oracle sample: %d %s pairs small enough to check, want %d", count[c], c, perClass)
	}
}

// replay is one pass of the layer ladder over every pair.
type replay struct {
	wall                                  time.Duration
	accepted                              [][2]int
	cssPruned, groupPruned, candidates    int64
	groupsBuilt, worlds, gedCalls, states int64
	budgetHits                            int64
}

// replayJoin re-runs the join's work for every pair through public
// functions, layer by layer and one query row at a time: signatures, the
// css bound over the row, the group bound over its survivors, then
// possible-world verification with a GED call per world that passes the
// per-world CSS pre-check, stopping early on accept or reject exactly as the
// join does. With a tracer, each layer's call over a row is one span and
// each GED call a child of its row's verify span.
func replayJoin(tr *tracer, d []*graph.Graph, u []*ugraph.Graph, opts core.Options) *replay {
	out := &replay{}
	start := time.Now()
	id := tr.open("filter.sig", 0, -1)
	qsigs, gsigs := filter.NewQSigs(d), filter.NewGSigs(u)
	tr.close(id)

	css, group := filter.MustBound("css"), filter.MustBound("group")
	var (
		sc   filter.Scratch
		pv   filter.PairVerifier
		ws   ugraph.WorldScratch
		surv []filter.PairContext
		gis  []int
	)
	type cand struct {
		gi     int
		groups []ugraph.Group
	}
	var cands []cand
	for qi := range d {
		surv, gis, cands = surv[:0], gis[:0], cands[:0]
		id := tr.open("filter.css", qi, -1)
		for gi := range u {
			pc := filter.PairContext{QS: qsigs[qi], GS: gsigs[gi], Tau: opts.Tau, Alpha: opts.Alpha,
				GroupCount: opts.GroupCount, Scratch: &sc}
			if css.Apply(&pc).Pruned {
				out.cssPruned++
				continue
			}
			surv, gis = append(surv, pc), append(gis, gi)
		}
		tr.close(id)

		id = tr.open("filter.group", qi, -1)
		for i := range surv {
			o := group.Apply(&surv[i])
			out.groupsBuilt += o.GroupsBuilt
			if o.Pruned {
				out.groupPruned++
				continue
			}
			cands = append(cands, cand{gis[i], o.Groups})
		}
		tr.close(id)

		id = tr.open("verify", qi, -1)
		for _, c := range cands {
			out.candidates++
			if verifyReplay(tr, id, qi, d[qi], qsigs[qi], gsigs[c.gi], u[c.gi], c.groups, opts, &pv, &ws, out) {
				out.accepted = append(out.accepted, [2]int{qi, c.gi})
			}
		}
		tr.close(id)
	}
	out.wall = time.Since(start)
	return out
}

// verifyReplay decides one candidate by enumerating its possible worlds
// (high-mass groups first) with the per-world CSS pre-check, a GED call for
// each world that passes it, and early accept/reject on the accumulated
// probability mass.
func verifyReplay(tr *tracer, parent, qi int, q *graph.Graph, qs *filter.QSig, gs *filter.GSig, g *ugraph.Graph,
	groups []ugraph.Group, opts core.Options, pv *filter.PairVerifier, ws *ugraph.WorldScratch, out *replay) bool {
	if groups == nil {
		groups = []ugraph.Group{{G: g, Mass: gs.Mass}}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Mass > groups[j].Mass })
	remaining := 0.0
	for _, gr := range groups {
		remaining += gr.Mass
	}
	simP := 0.0
	decided, accepted := false, false
	pv.Reset(qs, gs)
	for _, gr := range groups {
		if decided {
			break
		}
		gr.G.WorldsScratch(ws, func(w *graph.Graph, p float64) bool {
			out.worlds++
			remaining -= p
			if pv.WorldLowerBound(w) <= opts.Tau {
				out.gedCalls++
				id := tr.open("ged.compute", qi, parent)
				res, err := ged.Compute(q, w, ged.Options{Threshold: opts.Tau, MaxStates: 4_000_000})
				tr.close(id)
				out.states += int64(res.States)
				switch {
				case err != nil:
					out.budgetHits++
				case !res.Exceeded:
					simP += p
				}
			}
			if simP >= opts.Alpha {
				decided, accepted = true, true
				return false
			}
			if simP+remaining < opts.Alpha {
				decided = true
				return false
			}
			return true
		})
	}
	if !decided {
		accepted = simP >= opts.Alpha
	}
	return accepted
}

// checkReplay checks that the ladder did the join's work: the same result
// pairs and the same prune, candidate, world and GED counts.
func checkReplay(r *run, rp *replay, pairs []core.Pair, st core.Stats) {
	same := len(rp.accepted) == len(pairs)
	for i := 0; same && i < len(pairs); i++ {
		same = rp.accepted[i] == [2]int{pairs[i].Q, pairs[i].G}
	}
	r.expect(same, "layer replay accepted %d pairs, the join returned %d (or different ones)", len(rp.accepted), len(pairs))
	r.expect(rp.budgetHits == 0 && st.GEDBudgetHits == 0, "GED state budget hit (replay %d, join %d)", rp.budgetHits, st.GEDBudgetHits)
	got := [6]int64{rp.cssPruned, rp.groupPruned, rp.candidates, rp.worlds, rp.gedCalls, rp.states}
	want := [6]int64{st.CSSPruned, st.ProbPruned, st.Candidates, st.WorldsChecked, st.GEDCalls, st.GEDStatesExpanded}
	r.expect(got == want, "layer replay counts (css, group, candidates, worlds, GED calls, GED states) %v != join Stats %v", got, want)
	r.expect(rp.groupsBuilt == st.GroupsBuilt, "layer replay built %d groups, the join %d", rp.groupsBuilt, st.GroupsBuilt)
}
