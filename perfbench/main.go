// Command perfbench is simjoin's end-to-end benchmark. One invocation runs
// one named workload for a fixed measuring time, checks every output against
// oracles computed apart from the program (package oracle) or against
// properties the method must have, and prints one JSON result line:
//
//	perfbench --workload learn-webq --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from a replay of the same work
// through the layers' public functions with a span around each call. The
// workloads and metrics are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"simjoin/internal/fault"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload reports into.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	tr      *tracer // non-nil only in the traced replay

	attempted, failed int64
	violations        int
	e2e, layer        map[string]metric

	// failpoints are armed when measuring starts (sensitivity self-test).
	failpoints string
	// rssMB is the process's peak resident set size when measuring ended,
	// before the checks and the traced replay allocate their own memory.
	rssMB float64
	// refs holds every timing of the reference kernel; roundTime and
	// roundRef hold, per measured round, its time and the kernel's median
	// time after it; lat and latRound hold every operation's latency and
	// round. All times are in ms.
	refs, roundTime, roundRef []float64
	lat                       []float64
	latRound                  []int
}

// op records one attempted operation of the round in progress: its
// latency, or, when it failed, a latency that misses every limit.
func (r *run) op(latMS float64, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
		latMS = math.Inf(1)
	}
	r.lat = append(r.lat, latMS)
	r.latRound = append(r.latRound, len(r.roundRef))
}

// failRecorded marks the k-th operation recorded with op as failed, for a
// failure that is known only after measuring.
func (r *run) failRecorded(k int) {
	if !math.IsInf(r.lat[k], 1) {
		r.failed++
		r.lat[k] = math.Inf(1)
	}
}

// violate records a correctness violation; the first few are printed to
// standard error.
func (r *run) violate(format string, args ...interface{}) {
	r.violations++
	if r.violations <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// expect records a violation unless ok holds.
func (r *run) expect(ok bool, format string, args ...interface{}) {
	if !ok {
		r.violate(format, args...)
	}
}

func (r *run) endToEnd(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }
func (r *run) perLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// measure calls round until the run's measuring time is spent, always
// completing the round in progress and running at least minRounds. After
// each round it times the reference kernel, repeating it until the kernel
// has run for refShare of the round's time, so that the kernel samples the
// machine's speed as it was during that round. It returns the number of
// rounds.
func (r *run) measure(minRounds int, round func()) int {
	if r.failpoints != "" {
		if err := fault.EnableAll(r.failpoints); err != nil {
			panic(err) // the spec was validated at startup
		}
	}
	k := newRefKernel()
	k.run()
	start := time.Now()
	n := 0
	for n < minRounds || time.Since(start) < r.seconds {
		t := time.Now()
		round()
		d := time.Since(t)
		var refs []float64
		for spent := time.Duration(0); spent < time.Duration(refShare*float64(d)) || spent == 0; {
			kd := k.run()
			refs = append(refs, ms(kd))
			spent += kd
		}
		r.refs = append(r.refs, refs...)
		r.roundTime = append(r.roundTime, ms(d))
		r.roundRef = append(r.roundRef, median(refs))
		n++
	}
	r.rssMB = maxRSSMB()
	return n
}

// refShare is the reference kernel's share of the measuring time.
const refShare = 0.03

// reportOps records the end-to-end latency and throughput of the
// operations recorded with op, in time relative to the reference kernel's
// median after each round, and their wall-clock values as per-layer
// metrics. A failed operation misses every latency limit (its latency is
// +Inf, so when more than half fail the result cannot be printed and the
// run ends with an error) and does not count towards throughput.
// Throughput is the median over rounds, so that one round slowed by a
// neighbour on the machine does not move it.
func (r *run) reportOps() {
	rel := make([]float64, len(r.lat))
	perRound := make([]float64, len(r.roundTime))
	done := 0
	for i, l := range r.lat {
		k := r.latRound[i]
		rel[i] = l / r.roundRef[k]
		if !math.IsInf(l, 1) {
			perRound[k]++
			done++
		}
	}
	wall := 0.0
	for k, t := range r.roundTime {
		perRound[k] /= t / r.roundRef[k]
		wall += t
	}
	r.endToEnd("op_p50_rel", "ref", median(rel))
	r.endToEnd("ops_per_ref", "1/ref", median(perRound))
	r.perLayer("wall.op_p50_ms", "ms", median(append([]float64(nil), r.lat...)))
	r.perLayer("wall.ops_per_s", "1/s", float64(done)/wall*1000)
	r.perLayer("bench.ref_ms", "ms", median(r.refs))
}

// workloads maps each workload name to its run.
var workloads = map[string]func(*run) error{
	"learn-webq": learnWebQ,
	"ask-qald":   askQALD,
	"serve-qald": serveQALD,
}

// layerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them; a layer a workload never calls reads 0 there.
var layerMetrics = [][2]string{
	// Every workload: the wall-clock figures behind the relative end-to-end
	// metrics, and the reference kernel's median time.
	{"wall.op_p50_ms", "ms"}, {"wall.ops_per_s", "1/s"}, {"bench.ref_ms", "ms"},
	// Setup breakdown (every workload generates, interprets and joins).
	{"workload.generate_ms", "ms"}, {"nlq.interpret_ms", "ms"}, {"core.cold_join_ms", "ms"},
	// learn-webq: timed from outside, then the traced layer ladder.
	{"core.join_ms", "ms"}, {"template.build_ms", "ms"},
	{"filter.sig_ms", "ms"}, {"filter.css_ms", "ms"}, {"filter.group_ms", "ms"},
	{"ugraph.worlds_ms", "ms"}, {"ged.verify_ms", "ms"}, {"core.unexplained_ms", "ms"},
	// learn-webq: exact work counts from the returned Stats.
	{"core.pairs", "count"}, {"filter.css_pruned", "count"}, {"filter.group_pruned", "count"},
	{"core.candidates", "count"}, {"core.results", "count"}, {"ugraph.groups_built", "count"},
	{"ugraph.worlds", "count"}, {"ged.calls", "count"}, {"ged.states", "count"},
	{"template.count", "count"}, {"core.results_per_candidate", "ratio"},
	{"core.allocs", "count"}, {"core.alloc_mb", "MB"},
	// ask-qald.
	{"template.match_ms", "ms"}, {"template.match_calls", "count"}, {"nlq.deptree_us", "us"},
	{"nlq.extract_us", "us"}, {"template.instantiate_ms", "ms"}, {"sparql.exec_us", "us"},
	{"sparql.queries_per_ask", "count"}, {"sparql.rows_per_ask", "count"},
	{"qa.allocs_per_ask", "count"}, {"qa.ask_p99_ms", "ms"},
	{"qa.answered", "count"}, {"qa.abstained", "count"}, {"qa.correct", "count"},
	// serve-qald.
	{"core.delta_join_ms", "ms"}, {"core.delta_candidates", "count"}, {"server.decode_us", "us"},
	{"server.join_p50_ms", "ms"}, {"server.join_p99_ms", "ms"},
	{"server.ask_p50_ms", "ms"}, {"server.ask_p99_ms", "ms"},
	{"server.join_overhead_ms", "ms"}, {"server.ask_overhead_ms", "ms"},
	{"server.requests_exact", "count"}, {"server.requests_shed", "count"},
	// Every workload: the traced replay's wall time minus the same replay's
	// untraced wall time.
	{"trace.overhead_ms", "ms"},
}

func main() {
	var (
		name       = flag.String("workload", "", "workload: learn-webq, ask-qald or serve-qald")
		seed       = flag.Int64("seed", 1, "input seed")
		seconds    = flag.Int("seconds", 10, "measuring time in seconds")
		trace      = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced replay, 0 the end-to-end metrics")
		traceOut   = flag.String("trace-out", "", "with --trace 1, write the recorded spans as JSON lines to this file")
		failpoints = flag.String("failpoints", "", "arm these failpoints once setup is done (sensitivity self-test only), e.g. 'sparql.execute=delay:1us'")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds ≥ 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// A normal run measures the program as shipped: a failpoint armed from
	// the environment would silently distort every figure.
	if a := fault.Active(); a != nil && *failpoints == "" {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to run with failpoints armed: %v\n", a)
		os.Exit(2)
	}
	if *failpoints != "" {
		// Validate the spec now; measure arms it.
		if err := fault.EnableAll(*failpoints); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		fault.Reset()
	}

	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		e2e:     map[string]metric{},
		layer:   map[string]metric{},

		failpoints: *failpoints,
	}
	if r.traced {
		for _, m := range layerMetrics {
			r.perLayer(m[0], m[1], 0)
		}
	}
	// Every workload runs on one CPU: its garbage collection shares the
	// caller's CPU, so allocation shows in its latency instead of hiding on
	// an idle CPU, a neighbour on another CPU of the machine moves it less,
	// and no figure depends on how many CPUs the machine has.
	runtime.GOMAXPROCS(1)
	if err := wl(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.endToEnd("max_rss_mb", "MB", r.rssMB)

	res := result{Correct: r.violations == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if r.traced {
		res.Metrics = r.layer
		if *traceOut != "" && r.tr != nil {
			if err := r.tr.writeFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It is +Inf when the rank falls on or
// next to an infinite value.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) || pos == float64(i) {
		return xs[i]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99 is the 99th percentile, reported only with at least 1,000 samples
// (ten beyond it); with fewer it is 0.
func p99(xs []float64) float64 {
	if len(xs) < 1000 {
		return 0
	}
	return quantile(xs, 0.99)
}

// mallocs returns the process's cumulative heap allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}
