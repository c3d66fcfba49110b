package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"simjoin/internal/core"
	"simjoin/internal/graph"
	"simjoin/internal/obs"
	"simjoin/internal/qa"
	"simjoin/internal/server"
	"simjoin/internal/workload"
)

const (
	serveSetups = 30
	// Each round posts one /join request for every query of the workload's
	// query side and as many /ask requests, a holdout drawn with the fixed
	// seed serveAskSeed so that the share of /ask requests hitting the
	// abstention fault (see README.md) is the same in every run; the seed
	// orders the round. No record of the service's real traffic exists, so
	// the two endpoints get equal shares and both reach the median.
	serveAskSeed = 999
	// The simjoind defaults for a QA workload.
	serveTau    = 2
	serveAlpha  = 0.5
	serveMinPhi = 0.5
)

// serveOp is one request of a round.
type serveOp struct {
	ask  bool
	idx  int // index into the query side (/join) or the ask holdout (/ask)
	body []byte
}

// serveEnv is one booted service with its in-process references.
type serveEnv struct {
	m        *qaldModel
	ts       *qa.TemplateSystem // the uninstrumented system behind /ask
	opts     core.Options
	resident *core.Resident
	reg      *obs.Registry
	httpSrv  *http.Server
	served   chan error // receives Serve's result once it returns
	srv      *server.Server
	url      string
	client   *http.Client
}

// bootService builds the state `simjoind -workload qald` builds — templates
// learned with experiments.DefaultJoinOptions, the resident question side,
// an instrumented template system — and serves it on a loopback port. The
// one departure from simjoind's defaults is a single join worker per
// request, the one CPU the workload runs on.
func bootService() (*serveEnv, error) {
	m, err := trainQALD(1)
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	tr := obs.NewTracer(obs.DefaultTraceCapacity)
	kb := m.w.KB
	kb.Store.SetObs(reg)
	ts := &qa.TemplateSystem{Store: m.store, Lex: kb.Lexicon, KB: kb.Store, MinPhi: serveMinPhi}
	opts := core.DefaultOptions()
	opts.Tau, opts.Alpha, opts.Workers = serveTau, serveAlpha, 1
	e := &serveEnv{m: m, ts: ts, opts: opts, resident: core.NewResident(m.p.U), reg: reg}
	e.srv = server.New(server.Config{
		Resident:    e.resident,
		Join:        opts,
		QA:          qa.Instrument(ts, reg, tr),
		Samples:     m.p.D,
		MaxInFlight: 4,
		Obs:         reg,
		Tracer:      tr,
		Logger:      obs.StderrLogger(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.httpSrv = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	e.url = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{}}
	return e, nil
}

// shutdown drains the service, closes its listener and connections, and
// waits for its serving goroutine to return.
func (e *serveEnv) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	e.client.CloseIdleConnections()
	if err := e.httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	if err := <-e.served; err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// reply is one request's outcome.
type reply struct {
	status int
	body   []byte
	lat    float64 // ms
	err    error
}

// post runs ops through one closed-loop caller and returns each op's reply.
func (e *serveEnv) post(ops []serveOp) []reply {
	out := make([]reply, len(ops))
	for i, op := range ops {
		path := "/join"
		if op.ask {
			path = "/ask"
		}
		t0 := time.Now()
		resp, err := e.client.Post(e.url+path, "application/json", bytes.NewReader(op.body))
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			out[i].status = resp.StatusCode
		}
		out[i].lat = ms(time.Since(t0))
		out[i].body, out[i].err = body, err
	}
	return out
}

// serveQALD drives the join service over loopback HTTP with one caller in
// a closed loop posting a seeded mix of /join and /ask requests. One caller
// never exceeds the service's MaxInFlight, so no request waits for
// admission and every /join runs at tier exact; on one CPU, like the other
// workloads, its figures spread far less than two callers' on two CPUs (see
// README.md).
// One operation is one request; a round posts every op of the mix once.
func serveQALD(r *run) error {
	var (
		setup []float64
		e     *serveEnv
	)
	for i := 0; i < serveSetups; i++ {
		if e != nil {
			e.shutdown()
			e = nil
		}
		runtime.GC() // each setup starts from the same heap
		t0 := time.Now()
		var err error
		if e, err = bootService(); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer e.shutdown()
	ops, asks := serveMix(e, r.seed)
	e.post(ops) // warm-up round

	// In-process references: the batch join of every /join query and the
	// in-process answer to every /ask question.
	wantJoin := map[int][]core.Pair{}
	wantAsk := map[int]askOutcome{}
	for _, op := range ops {
		if op.ask {
			res, err := e.ts.Answer(asks[op.idx].Text)
			wantAsk[op.idx] = askOutcome{res: res, err: err}
			continue
		}
		if _, ok := wantJoin[op.idx]; !ok {
			pairs, _, err := core.Join([]*graph.Graph{e.m.p.D[op.idx]}, e.m.p.U, e.opts)
			if err != nil {
				return err
			}
			wantJoin[op.idx] = pairs
		}
	}

	fmt.Fprintf(os.Stderr, "perfbench: |D|=%d resident |U|=%d KB=%d triples, %d templates; %d requests per round\n",
		len(e.m.p.D), e.resident.Len(), e.m.w.KB.Store.Len(), e.m.store.Len(), len(ops))
	exact0, shed0 := e.tierCounts()
	var joinLat, askLat []float64
	r.measure(1, func() {
		for i, rep := range e.post(ops) {
			op := ops[i]
			ok := checkReply(r, op, rep, wantJoin[op.idx], wantAsk[op.idx])
			r.op(rep.lat, ok)
			switch {
			case !ok:
			case op.ask:
				askLat = append(askLat, rep.lat)
			default:
				joinLat = append(joinLat, rep.lat)
			}
		}
	})
	exact1, shed1 := e.tierCounts()

	fmt.Fprintf(os.Stderr, "perfbench: set-ups (s): %.4f\n", setup)
	r.endToEnd("setup_s", "s", median(setup))
	r.reportOps()
	if !r.traced {
		return nil
	}

	r.perLayer("workload.generate_ms", "ms", e.m.genMS)
	r.perLayer("nlq.interpret_ms", "ms", e.m.interpMS)
	r.perLayer("core.cold_join_ms", "ms", e.m.joinMS)
	// The per-endpoint latencies are those of the successful requests.
	joinP50, askP50 := median(joinLat), median(askLat)
	r.perLayer("server.join_p50_ms", "ms", joinP50)
	r.perLayer("server.join_p99_ms", "ms", p99(joinLat))
	r.perLayer("server.ask_p50_ms", "ms", askP50)
	r.perLayer("server.ask_p99_ms", "ms", p99(askLat))
	r.perLayer("server.requests_exact", "count", float64(exact1-exact0))
	r.perLayer("server.requests_shed", "count", float64(shed1-shed0))

	// In-process replay of the round through the layers' public functions:
	// the request decoders, core.JoinWith over a stream source on the
	// resident side, and the template system's Answer.
	var plain, traced []time.Duration
	r.tr = newTracer()
	var cands, joins int64
	for k := 0; k < 3; k++ {
		plain = append(plain, replayServe(r, nil, e, ops, wantJoin, wantAsk, nil, nil))
		traced = append(traced, replayServe(r, r.tr, e, ops, wantJoin, wantAsk, &cands, &joins))
	}
	delta := r.tr.durations("core.join_with")
	r.perLayer("core.delta_join_ms", "ms", median(delta))
	r.perLayer("core.delta_candidates", "count", float64(cands)/float64(joins))
	r.perLayer("server.decode_us", "us", median(r.tr.durations("server.decode"))*1e3)
	r.perLayer("server.join_overhead_ms", "ms", joinP50-median(delta))
	r.perLayer("server.ask_overhead_ms", "ms", askP50-median(r.tr.durations("qa.answer")))
	r.perLayer("trace.overhead_ms", "ms", ms(medianDuration(traced)-medianDuration(plain)))
	return nil
}

// serveMix builds one round — every query of the query side and as many
// fixed holdout questions, in a seeded order — and returns it with the
// questions.
func serveMix(e *serveEnv, seed int64) ([]serveOp, []workload.Question) {
	var ops []serveOp
	for qi, q := range e.m.w.Sparql {
		body, _ := json.Marshal(server.JoinRequest{Query: q.Query.String()})
		ops = append(ops, serveOp{idx: qi, body: body})
	}
	asks := e.m.w.HoldoutQuestions(serveAskSeed, len(e.m.w.Sparql), askDecoration)
	for i, q := range asks {
		body, _ := json.Marshal(server.AskRequest{Question: q.Text})
		ops = append(ops, serveOp{ask: true, idx: i, body: body})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, asks
}

// tierCounts reads the service's own request accounting.
func (e *serveEnv) tierCounts() (exact, shed int64) {
	for _, ep := range []string{"join", "ask"} {
		exact += e.reg.Counter(obs.Name("server_requests_total", "endpoint", ep, "tier", "exact")).Value()
		shed += e.reg.Counter(obs.Name("server_requests_total", "endpoint", ep, "tier", "shed")).Value()
	}
	return exact, shed
}

// checkReply checks one response against the in-process reference. It
// returns false when the operation failed: any non-200 response, or a /join
// served below tier exact.
func checkReply(r *run, op serveOp, rep reply, wantJoin []core.Pair, wantAsk askOutcome) bool {
	if rep.err != nil || rep.status != http.StatusOK {
		if op.ask && wantAsk.err != nil && rep.status == http.StatusInternalServerError {
			return false // the abstention fault named in README.md
		}
		r.violate("%s request %d: status %d, error %v", opName(op), op.idx, rep.status, rep.err)
		return false
	}
	if op.ask {
		var got server.AskResponse
		if err := json.Unmarshal(rep.body, &got); err != nil {
			r.violate("/ask %d: bad response: %v", op.idx, err)
			return false
		}
		r.expect(wantAsk.err == nil && sameBindings(got.Bindings, wantAsk.res),
			"/ask %d: %d bindings, in-process %d (error %v)", op.idx, len(got.Bindings), len(wantAsk.res), wantAsk.err)
		return true
	}
	var got server.JoinResponse
	if err := json.Unmarshal(rep.body, &got); err != nil {
		r.violate("/join %d: bad response: %v", op.idx, err)
		return false
	}
	if got.Tier != "exact" {
		return false
	}
	same := got.Total == len(wantJoin) && len(got.Matches) == len(wantJoin)
	for i := 0; same && i < len(wantJoin); i++ {
		g, w := got.Matches[i], wantJoin[i]
		same = g.Graph == w.G && g.SimP == w.SimP && g.Distance == w.Distance && g.Verdict == w.Verdict.String()
	}
	r.expect(same, "/join %d: %d matches, batch join %d (or different ones)", op.idx, len(got.Matches), len(wantJoin))
	return true
}

func opName(op serveOp) string {
	if op.ask {
		return "/ask"
	}
	return "/join"
}

// replayServe runs one round's work in process, returning its wall time.
// With a tracer, each op is a root span with a child for its decode and one
// for its join or answer; cands and joins accumulate the delta joins'
// candidate counts.
func replayServe(r *run, tr *tracer, e *serveEnv, ops []serveOp, wantJoin map[int][]core.Pair,
	wantAsk map[int]askOutcome, cands, joins *int64) time.Duration {
	lim := server.DefaultLimits()
	start := time.Now()
	for i, op := range ops {
		root := tr.open("request", i, -1)
		if op.ask {
			id := tr.open("server.decode", i, root)
			req, err := server.DecodeAskRequest(op.body, lim)
			tr.close(id)
			if err != nil {
				r.violate("/ask %d: decode: %v", op.idx, err)
				continue
			}
			// The answers the service fails on are timed apart, so that
			// the ask overhead compares the same inputs on both sides.
			w := wantAsk[op.idx]
			name := "qa.answer"
			if w.err != nil {
				name = "qa.answer_failed"
			}
			id = tr.open(name, i, root)
			res, err := e.ts.Answer(req.Question)
			tr.close(id)
			r.expect((err == nil) == (w.err == nil) && sameBindings(res, w.res), "in-process answer %d differs", op.idx)
		} else {
			id := tr.open("server.decode", i, root)
			_, qg, err := server.DecodeJoinRequest(op.body, lim)
			tr.close(id)
			if err != nil {
				r.violate("/join %d: decode: %v", op.idx, err)
				continue
			}
			id = tr.open("core.join_with", i, root)
			pairs, st, err := core.JoinWith(context.Background(), core.NewStreamSource(e.resident, []*graph.Graph{qg}), e.opts)
			tr.close(id)
			r.expect(err == nil && samePairs(pairs, wantJoin[op.idx]), "in-process delta join %d differs from the batch join", op.idx)
			if cands != nil {
				*cands += st.Candidates
				*joins++
			}
		}
		tr.close(root)
	}
	return time.Since(start)
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
