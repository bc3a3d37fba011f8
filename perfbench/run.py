#!/usr/bin/env python3
"""Served-query benchmark for zkqac.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/zkbench.exe with dune, sets up the workload's ADS,
serves it from a separate server process on loopback, drives it with
a closed-loop verifying client for S seconds and checks every answer against
an oracle. zkbench and its server run pinned to one vCPU, and the gated
times (setup_s, latency_p50_ms) are scaled to a reference CPU by a CPU
probe and the host's steal (see PROBE_REF_MS). It prints a readable
breakdown, then as its last line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json; with --trace 1 the run adds a traced
replay and reports the per_layer metrics. The exit code is
non-zero on a wrong answer, a broken workload character, an unclean server
drain, or a failed build.

Self-tests: python3 perfbench/test_run.py
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "zkbench.exe")
OUT = os.path.join(HERE, "_out")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("typea-relax", "typea-results", "mock-service")


def deadline_s(seconds):
    """Budget for one workload run once the build is done: the timed
    window, a traced replay of at most 1.5 windows, the in-process SP replay
    and the unit-cost ladder, plus a minute for set-up and the rest."""
    return 60.0 + 3.5 * seconds


METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

# The reference CPU the gated times are scaled to: one on which zkbench's
# CPU probe (a frozen chain of four-limb modular products) takes this long,
# and of which the host takes nothing. On a shared 2-vCPU VM a vCPU flips
# between two speeds many times a second, in shares that change over
# minutes (the same run read a p50 of 375 ms and of 618 ms), and the host
# takes up to a quarter of the CPU. The probe runs after every timed query
# and twice in every set-up repetition; one reading is either speed, so a
# phase's times are scaled by PROBE_REF_MS over the mean of its probes.
# /proc/stat's steal is read around each query and each set-up step, and
# each of those times is also scaled by the share not stolen.
PROBE_REF_MS = 5.0

# Fixed percentiles a tail may be reported at. The rungs sit far apart so
# that runs of one workload, whose sample counts differ a little, report the
# same percentile: typea runs stay below 100 samples (p50), mock-service
# runs between 1,000 and 10,000 (p99). The tail is a per-layer metric, not
# an end-to-end one: on a shared 2-vCPU VM it follows the share of CPU the
# host takes (mock-service p90 2.2 ms at 2% steal, 3.7 ms at 10%), so a
# bound on it would gate the host rather than the program.
TAIL_LADDER = (50, 90, 99)
TAIL_BEYOND = 10

# Op counter -> the unit cost that prices it. Multi-pairings are priced
# separately: a base cost per product plus a marginal cost per extra term.
UNIT_OF_OP = {
    "g_exp": "group.g_exp_ms",
    "g_mul": "group.g_mul_ms",
    "gt_exp": "group.gt_exp_ms",
    "gt_mul": "group.gt_mul_ms",
    "pairing": "group.pairing_ms",
    "sha256_compress": "hash.sha256_compress_ms",
}
SP_OPS = ("g_exp", "g_mul", "sha256_compress")
CLIENT_OPS = ("g_exp", "multi_pairings", "multi_pairing_terms", "gt_exp")


# ---------------------------------------------------------------------------
# Statistics over raw samples


def percentile(values, p):
    """The p-th percentile of raw samples, interpolating linearly between
    the two closest ranks (rank = p/100 * (n - 1) over the sorted values)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_BEYOND of n samples
    beyond it. Below 2 * TAIL_BEYOND samples no percentile above the median
    qualifies, and the tail is reported at the median."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100 - p) / 100.0 >= TAIL_BEYOND:
            best = p
    return best


def residual_pct(measured, predicted):
    """Share of a measured layer time that op counts x unit costs leave
    unexplained, in percent (negative when the prediction is too high)."""
    if measured <= 0:
        raise ValueError("residual of a non-positive measurement")
    return 100.0 * (measured - predicted) / measured


def predicted_ms(ops, units, decoded_points=0.0):
    """Sum of op count x unit cost for one query."""
    total = 0.0
    for op, unit in UNIT_OF_OP.items():
        total += ops.get(op, 0.0) * units[unit]
    products = ops.get("multi_pairings", 0.0)
    terms = ops.get("multi_pairing_terms", 0.0)
    total += products * units["group.e_prod_base_ms"]
    total += (terms - products) * units["group.e_prod_term_ms"]
    total += decoded_points * units["group.g_decode_ms"]
    return total


def mean(values):
    return statistics.fmean(values) if values else 0.0


def scaled(ms, probe_ms, steal_pct):
    """A time measured while the CPU probe read probe_ms and the host took
    steal_pct of the CPU, as it would read on the reference CPU."""
    if probe_ms <= 0:
        raise ValueError("scaling by a non-positive probe time")
    if not 0 <= steal_pct < 100:
        raise ValueError("steal share %r out of range" % steal_pct)
    return ms * PROBE_REF_MS / probe_ms * (1.0 - steal_pct / 100.0)


# ---------------------------------------------------------------------------
# Spans


def self_times(events):
    """Span id -> self time in ms: its duration minus its children's."""
    own = {}
    for e in events:
        own[e["args"]["id"]] = e["dur"] / 1e3
    for e in events:
        parent = e["args"]["parent"]
        if parent in own:
            own[parent] -= e["dur"] / 1e3
    return own


def spans_by_root(events, root_name):
    """For every root span called root_name: {child name: [spans]} of its
    whole subtree, plus the root itself under its own name."""
    by_id = {e["args"]["id"]: e for e in events}

    def root_of(e):
        while e["args"]["parent"] in by_id:
            e = by_id[e["args"]["parent"]]
        return e

    trees = {}
    for e in events:
        r = root_of(e)
        if r["name"] == root_name:
            trees.setdefault(r["args"]["id"], {}).setdefault(e["name"], []).append(e)
    return list(trees.values())


# ---------------------------------------------------------------------------
# Metrics


def samples_of(report, phase):
    fields = report["sample_fields"]
    return [dict(zip(fields, row)) for row in report[phase]["samples"]]


SETUP_STEPS = ("keygen", "build", "save", "load")


def setup_total_s(rep):
    return sum(rep[step + "_s"] for step in SETUP_STEPS)


def setup_probe_ms(report):
    """Mean CPU probe reading of the whole set-up phase."""
    return mean([p for r in report["setup"] for p in r["probes_ms"]])


def setup_scaled_s(rep, probe):
    """One set-up repetition at the reference CPU (probe reading probe),
    each step scaled by the share of the CPU not stolen during it."""
    return sum(scaled(rep[step + "_s"], probe, rep["steals_pct"][i])
               for i, step in enumerate(SETUP_STEPS))


def whole_cycles(report, samples):
    """The samples of the whole cycles of the query sequence, or all of
    them when there is not one (mock-service's cycle is every cell)."""
    cycle = report["cycle"]
    n = len(samples) // cycle * cycle
    return samples[:n] if n else samples


def end_to_end(report):
    """The gated metrics, over whole cycles of the query sequence, so that
    every cell of the run's data weighs alike. setup_s and latency_p50_ms
    are scaled to the reference CPU; raw_times gives them as measured."""
    setup = report["setup"]
    timed = whole_cycles(report, samples_of(report, "timed"))
    probe = probe_ms(report)
    lat = [scaled(s["lat_ms"], probe, s["steal_pct"]) for s in timed]
    ok = [s for s in timed if s["ok"]]
    return {
        "setup_s": (statistics.median(
            setup_scaled_s(r, setup_probe_ms(report)) for r in setup), "s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "vo_bytes": (mean([s["vo_bytes"] for s in ok]), "bytes"),
        "ads_bytes": (float(setup[-1]["ads_bytes"]), "bytes"),
        "server_rss_mb": (report["server"]["rss_mb"], "MB"),
    }


def raw_times(report):
    """setup_s and latency_p50_ms as measured, not scaled."""
    timed = whole_cycles(report, samples_of(report, "timed"))
    return {
        "raw.setup_s": (statistics.median(setup_total_s(r) for r in report["setup"]), "s"),
        "raw.latency_p50_ms": (percentile([s["lat_ms"] for s in timed], 50), "ms"),
    }


def probe_ms(report):
    """Mean CPU probe reading of the timed window."""
    return mean(
        [report["timed"]["probe0_ms"]] + [s["probe_ms"] for s in samples_of(report, "timed")])


def qps(report):
    """Verified, oracle-correct queries per second of the timed window."""
    ok = sum(1 for s in samples_of(report, "timed") if s["ok"])
    return ok / report["timed"]["wall_s"]


def tail(report):
    """(percentile, ms) of the timed phase's latency tail."""
    lat = [s["lat_ms"] for s in samples_of(report, "timed")]
    p = tail_percentile(len(lat))
    return p, percentile(lat, p)


def server_layer(report):
    timed = samples_of(report, "timed")
    ms = lambda key: [s[key] / 1e3 for s in timed]
    other = [(s["total_us"] - s["queue_us"] - s["relax_us"] - s["prove_us"]
              - s["encode_us"]) / 1e3 for s in timed]
    srv = report["server"]
    conns = srv["zkqac_server_connections_total"]
    n = len(timed)
    return {
        "server.total_ms": (percentile(ms("total_us"), 50), "ms"),
        "server.queue_ms": (percentile(ms("queue_us"), 50), "ms"),
        "server.relax_ms": (percentile(ms("relax_us"), 50), "ms"),
        "server.prove_ms": (percentile(ms("prove_us"), 50), "ms"),
        "server.encode_ms": (percentile(ms("encode_us"), 50), "ms"),
        "server.other_ms": (percentile(other, 50), "ms"),
        "server.connections_per_query": (conns / max(1.0, srv["zkqac_server_requests_total"]), "ratio"),
        "server.shed_ratio": (srv["zkqac_server_shed_total"] / max(1.0, conns), "ratio"),
        "net.other_ms": (percentile([s["attempt_ms"] - s["total_us"] / 1e3 for s in timed], 50), "ms"),
        "client.retries_per_query": (sum(max(0, s["attempts"] - 1) for s in timed) / n, "ratio"),
        "client.verify_total_ms": (percentile([s["verify_ms"] for s in timed], 50), "ms"),
        "client.batch_fallback_ratio": (report["timed"]["fallbacks"] / n, "ratio"),
        "error_rate": (sum(1 for s in timed if not s["ok"]) / n, "ratio"),
    }


def per_layer(report, events, e2e):
    m = {}
    setup = report["setup"]
    for step in SETUP_STEPS:
        m["setup.%s_s" % step] = (statistics.median(r[step + "_s"] for r in setup), "s")
    m["setup.signatures"] = (float(setup[-1]["signatures"]), "count")
    m.update(server_layer(report))
    m["latency.samples"] = (float(len(report["timed"]["samples"])), "count")
    m["qps"] = (qps(report), "1/s")
    tail_p, tail_ms = tail(report)
    m["latency_tail_ms"] = (tail_ms, "ms")
    m["latency.tail_percentile"] = (float(tail_p), "%")
    m["env.steal_pct"] = (report["timed"]["steal_pct"], "%")
    m["env.cpu_probe_ms"] = (probe_ms(report), "ms")
    m.update(raw_times(report))

    selfs = self_times(events)
    dur = lambda e: e["dur"] / 1e3
    total = lambda tree, name: sum(dur(e) for e in tree.get(name, []))
    own = lambda tree, name: sum(selfs[e["args"]["id"]] for e in tree.get(name, []))

    client = spans_by_root(events, "bench.query")
    wait_total = lambda t: sum(e["args"].get("total_us", 0) / 1e3 for e in t.get("net.wait", []))
    m["net.connect_ms"] = (percentile([total(t, "net.connect") for t in client], 50), "ms")
    m["net.transfer_ms"] = (percentile(
        [total(t, "net.send") + total(t, "net.wait") - wait_total(t) for t in client], 50), "ms")
    m["client.decode_ms"] = (percentile([own(t, "client.decode") for t in client], 50), "ms")
    m["client.verify_ms"] = (percentile([own(t, "client.verify") for t in client], 50), "ms")
    traced_p50 = percentile([total(t, "bench.query") for t in client], 50)
    m["trace.latency_p50_ms"] = (traced_p50, "ms")
    untraced_p50 = raw_times(report)["raw.latency_p50_ms"][0]
    m["trace.overhead_pct"] = (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%")

    sp = spans_by_root(events, "sp.query")
    attr = lambda t, key: sum(e["args"].get(key, 0) for e in t.get("sp.range_vo", []))
    m["sp.range_vo_ms"] = (percentile([total(t, "sp.range_vo") for t in sp], 50), "ms")
    m["sp.relax_ms"] = (percentile([total(t, "abs.relax") for t in sp], 50), "ms")
    m["vo.encode_ms"] = (percentile([total(t, "vo.encode") for t in sp], 50), "ms")
    m["sp.relax_calls"] = (mean([attr(t, "relax_calls") for t in sp]), "count")
    m["sp.nodes_visited"] = (mean([attr(t, "nodes_visited") for t in sp]), "count")
    for kind in ("accessible", "inaccessible_leaf", "inaccessible_node"):
        m["vo." + kind] = (mean([attr(t, kind) for t in sp]), "count")

    units = report["units"]
    for name, value in units.items():
        m[name] = (value, "ms")

    n_sp = report["sp"]["queries"]
    sp_ops = {k: v / n_sp for k, v in report["sp"]["ops"].items()}
    n_client = len(client)
    client_ops = {k: v / n_client for k, v in report["traced"]["ops"].items()}
    points = mean([sum(e["args"].get("g_points", 0) for e in t.get("client.decode", []))
                   for t in client])
    for op in SP_OPS:
        m["ops.sp." + op] = (sp_ops.get(op, 0.0), "count")
    for op in CLIENT_OPS:
        m["ops.client." + op] = (client_ops.get(op, 0.0), "count")
    m["ops.client.g_decode"] = (points, "count")

    sp_measured = mean([total(t, "sp.range_vo") for t in sp])
    client_measured = mean([own(t, "client.decode") + own(t, "client.verify") for t in client])
    m["accounting.sp_residual_pct"] = (
        residual_pct(sp_measured, predicted_ms(sp_ops, units)), "%")
    m["accounting.client_residual_pct"] = (
        residual_pct(client_measured, predicted_ms(client_ops, units, points)), "%")
    return m


def load_contract(path=CONTRACT):
    with open(path) as f:
        contract = json.load(f)
    return {
        section: {m["name"]: m["unit"] for m in contract[section]}
        for section in ("end_to_end", "per_layer")
    }


def check_names(metrics, declared):
    """Problems with emitted metrics against one BENCHMARK.json section:
    bad names, undeclared names or units, and declared metrics missing."""
    problems = []
    for name, (_, unit) in metrics.items():
        if not METRIC_NAME.match(name):
            problems.append("bad metric name %r" % name)
        elif name not in declared:
            problems.append("%s is not declared in BENCHMARK.json" % name)
        elif declared[name] != unit:
            problems.append("%s has unit %s, BENCHMARK.json says %s" % (name, unit, declared[name]))
    for name in declared:
        if name not in metrics:
            problems.append("%s is declared but not measured" % name)
    return problems


# ---------------------------------------------------------------------------
# Breakdown


def breakdown(report, e2e, layer):
    n = len(report["timed"]["samples"])
    p50 = e2e["latency_p50_ms"][0]
    tail_p, tail_ms = tail(report)
    srv = server_layer(report)
    raw = raw_times(report)
    lines = [
        "%s seed %d: %d queries, %s backend, %.1f%% CPU stolen by the host,"
        " CPU probe %.2f ms (reference %.1f)" % (
            report["workload"], report["seed"], n, report["backend"],
            report["timed"]["steal_pct"], probe_ms(report), PROBE_REF_MS),
        "  at the reference CPU: setup_s %.3f  latency_p50_ms %.2f;"
        " as measured: setup_s %.3f  latency_p50_ms %.2f" % (
            e2e["setup_s"][0], p50, raw["raw.setup_s"][0], raw["raw.latency_p50_ms"][0]),
        "  as measured: qps %.2f  latency_tail_ms %.2f (p%s of %d samples)" % (
            qps(report), tail_ms, tail_p, n),
        "  blocking path at p50, as measured: server %.2f ms (queue %.2f, relax %.2f, prove %.2f, encode %.2f, other %.2f)"
        " + network %.2f ms + client decode+verify %.2f ms" % tuple(
            srv[k][0] for k in ("server.total_ms", "server.queue_ms", "server.relax_ms",
                                "server.prove_ms", "server.encode_ms", "server.other_ms",
                                "net.other_ms", "client.verify_total_ms")),
    ]
    if layer:
        lines.append(
            "  traced: connect %.2f  transfer %.2f  decode %.2f  verify %.2f ms;"
            " sp range_vo %.2f (relax %.2f) ms; residuals sp %.1f%% client %.1f%%; trace overhead %.1f%%" % tuple(
                layer[k][0] for k in ("net.connect_ms", "net.transfer_ms", "client.decode_ms",
                                      "client.verify_ms", "sp.range_vo_ms", "sp.relax_ms",
                                      "accounting.sp_residual_pct",
                                      "accounting.client_residual_pct", "trace.overhead_pct")))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Command line


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from a full checkout" % ROOT)
    try:
        r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/zkbench.exe"],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run_exe(args):
    os.makedirs(OUT, exist_ok=True)
    cpu = max(os.sched_getaffinity(0))
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT,
           "--cpu", str(cpu)]
    # Client, server and CPU probe share one vCPU, the last this process may
    # use: the two vCPUs of a shared VM run at different speeds, each
    # changing by up to 1.5x within seconds, so a probe only tells the
    # speed of the vCPU it runs on. The closed loop never has client and
    # server computing at once.
    # Its own session, so a timeout can stop zkbench and its server child.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True,
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    deadline = deadline_s(args.seconds)
    try:
        out, _ = p.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("workload did not finish within %.0f s" % deadline)
    if p.returncode != 0:
        fail("zkbench exited %d" % p.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("zkbench printed no report")
    # The raw report stays next to the trace, for looking into a run.
    with open(os.path.join(OUT, "%s-%d.report.json" % (args.workload, args.seed)), "w") as f:
        f.write(lines[-1])
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    declared = load_contract()
    build()
    report = run_exe(args)

    e2e = end_to_end(report)
    layer = None
    if args.trace:
        with open(report["trace_file"]) as f:
            events = json.load(f)["traceEvents"]
        layer = per_layer(report, events, e2e)
    print(breakdown(report, e2e, layer))

    phases = ["warm", "timed"] + (["traced"] if args.trace else [])
    samples = [s for ph in phases for s in samples_of(report, ph)]
    failed = sum(1 for s in samples if not s["ok"])
    problems = list(report["violations"]) + list(report["errors"])
    if report["server"]["drain_exit"] != 0:
        problems.append("server drain exited %d" % report["server"]["drain_exit"])
    metrics = layer if args.trace else e2e
    names = check_names(metrics, declared["per_layer" if args.trace else "end_to_end"])
    for p in problems + names:
        print("  problem: " + p)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct and not names else 1


if __name__ == "__main__":
    sys.exit(main())
