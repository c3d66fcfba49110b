"""Sensitivity self-test for the benchmark.

Arms one delay failpoint at a time, once setup is done, and reports for
learn-webq and ask-qald how far each end-to-end metric's median moves
against the same seeds run unarmed, next to the metric's bound in
BENCHMARK.json. The targeted workload's metric should move past its bound;
the other workload's metrics should stay within theirs.

Run from the repository root:

    python3 perfbench/sensitivity.py [seconds] [seed ...]
"""

import json
import statistics
import subprocess
import sys

WORKLOADS = ["learn-webq", "ask-qald"]
# Each failpoint with the workload whose end-to-end latency it targets. A
# delay failpoint sleeps, and how long a short sleep really lasts depends on
# the Go timer: on the machine the README's figures come from,
# sparql.execute=delay:10us slowed ask-qald answers by about 15% and
# delay:1ms by about 45%, while every ged.compute delay costs far more than
# 15% of a learn-webq pass, which makes 59,682 GED calls.
FAILPOINTS = [
    ("ged.compute=delay:1us", "learn-webq"),
    ("sparql.execute=delay:10us", "ask-qald"),
    ("sparql.execute=delay:1ms", "ask-qald"),
]


def run(workload, seed, seconds, failpoints):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if failpoints:
        cmd += ["--failpoints", failpoints]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed} ({failpoints or 'unarmed'}): outputs incorrect")
    return {k: m["value"] for k, m in res["metrics"].items()}


def medians(workload, seeds, seconds, failpoints):
    runs = [run(workload, s, seconds, failpoints) for s in seeds]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def main():
    seconds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    seeds = [int(s) for s in sys.argv[2:]] or [1, 2, 3]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = {w: medians(w, seeds, seconds, "") for w in WORKLOADS}
    print(f"seeds {seeds}, {seconds} s per run; change of each median against the unarmed runs")
    print(f"{'failpoint':28} {'workload':11} {'metric':11} {'unarmed':>10} {'armed':>10} {'change':>8} {'bound':>6}  verdict")
    for fp, target in FAILPOINTS:
        for w in WORKLOADS:
            armed = medians(w, seeds, seconds, fp)
            for name, m in metrics.items():
                if name == "setup_s":
                    continue  # failpoints are armed after setup
                b, a = base[w][name], armed[name]
                worse = (a - b) / b if m["better"] == "lower" else (b - a) / b
                verdict = "past bound" if worse > m["bound"] else "within bound"
                print(f"{fp:28} {w:11} {name:11} {b:10.4g} {a:10.4g} {worse:+8.1%} {m['bound']:6.2f}  {verdict}"
                      + ("  (target)" if w == target else ""))


if __name__ == "__main__":
    main()
