"""labelloop benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload reference|site_boundary|hub_tcp
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the workload repeats its round until the timed rounds add
up to ``--seconds`` and reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs one round untraced and one traced, and reports
the per-layer metrics. Human-readable lines come first; the last line of
stdout is one JSON object. The exit code is 0 only when every output check
passed. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict, deque

import speed
import srcpath
import tracing

ROOT = srcpath.ROOT
WORK = ROOT / ".perfbench"

# workload name -> its class in workloads.py
WORKLOADS = {"reference": "Reference", "site_boundary": "SiteBoundary",
             "hub_tcp": "HubTcp"}
# every workload's default; README.md names the held-out seed
DEFAULT_SEED = 424242

IMPORT_SAMPLES = 7
EXTRA_SETUPS = 2
SPEED_BURST = 10  # speed samples before each round and after the last

_IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import labelloop.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Wall time of ``import labelloop.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-E", "-s", "-c", _IMPORT_CODE, str(srcpath.SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def make_workload(name: str, seed: int, workdir):
    import workloads  # only once the checkout's sources are on sys.path
    return getattr(workloads, WORKLOADS[name])(seed, workdir)


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics


def measure(workload, seconds: float, lines: list[str]):
    import_s = statistics.median(import_seconds() for _ in range(IMPORT_SAMPLES))
    setups = [workload.setup() for _ in range(EXTRA_SETUPS)]
    probe = speed.SpeedProbe()
    rounds = []
    measured = 0.0
    # the whole number of rounds whose time comes closest to ``seconds``
    while not rounds or measured + measured / len(rounds) / 2 < seconds:
        setups.append(workload.setup())
        probe.burst(SPEED_BURST)
        r = workload.round(probe=probe)
        rounds.append(r)
        measured += r.elapsed_s
    probe.burst(SPEED_BURST)
    rates = [r.studies / r.elapsed_s for r in rounds]
    # all the work over all the time, at the reference speed (speed.py)
    raw = sum(r.studies for r in rounds) / measured
    throughput = raw * probe.scale()
    hub_rss = [r.peak_rss_kb for r in rounds if r.peak_rss_kb is not None]
    rss_kb = (statistics.median(hub_rss) if hub_rss
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics = {
        "studies_per_s": throughput,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    lines.append(f"rounds: {len(rounds)}, {measured:.3f} s timed; studies/s per round: "
                 + ", ".join(f"{x:.2f}" for x in rates))
    lines.append(f"studies/s as timed {raw:.2f}; speed loop median "
                 f"{statistics.median(probe.samples) * 1e3:.3f} ms over "
                 f"{len(probe.samples)} samples (reference "
                 f"{speed.REFERENCE_LOOP_S * 1e3:g} ms), scale {probe.scale():.4f}")
    lines.append(f"setup: import {import_s:.4f} s (median of {IMPORT_SAMPLES}), "
                 f"objects {statistics.median(setups):.6f} s (median of {len(setups)})")
    latencies = sorted(ns for r in rounds for ns in r.latencies_ns)
    if latencies:
        lines.append(f"acks_per_s {len(latencies) / measured:.2f} 1/s")
        lines.append(f"ack_p50_ms {tracing.percentile(latencies, 50) / 1e6:.4f} ms")
        lines.append(f"ack_p99_ms {tracing.percentile(latencies, 99) / 1e6:.4f} ms")
        lines.append(tracing.describe_tail("ack latency", latencies, 1e-6, "ms"))
    return metrics, rounds


# ---------------------------------------------------------------------------
# traced: per-layer metrics


def tcp_frames(server_threads: dict, client_threads: dict):
    """Server handling time and client wait per frame, matched by envelope id.

    On the hub, a frame runs from the start of its envelope decode to the end
    of encoding its ack, on one handler thread. The client's span is the
    whole submit round trip; wait is that minus the server's part."""
    served: dict[str, deque] = defaultdict(deque)
    for spans in server_threads.values():
        begun = None
        for s in spans:
            if s[tracing.PARENT] != -1:
                continue
            if s[tracing.NAME] == "protocol.decode_envelope":
                begun = s
            elif (begun is not None and s[tracing.NAME] == "canon.encode"
                  and s[tracing.KIND] == "Ack"):
                served[begun[tracing.CORR]].append(s[tracing.END] - begun[tracing.START])
                begun = None
    server_ns, wait_ns = [], []
    for spans in client_threads.values():
        for s in spans:
            if s[tracing.NAME] != "protocol.tcp.submit" or not served[s[tracing.CORR]]:
                continue
            on_server = served[s[tracing.CORR]].popleft()
            server_ns.append(on_server)
            wait_ns.append(s[tracing.END] - s[tracing.START] - on_server)
    return sorted(server_ns), sorted(wait_ns)


def layer_values(threads: dict, counters, server_threads: dict,
                 client_threads: dict):
    """Every per-layer value the spans of both processes give, with the
    aggregate stats and durations behind them."""
    stats, durations, by_kind = tracing.aggregate(threads)
    values: dict[str, float] = {}
    for name in set(tracing.LAYER_NAMES) | set(stats):
        st = stats.get(name, tracing.LayerStats())
        d = durations.get(name)
        values[f"{name}.calls"] = st.calls
        values[f"{name}.self_s"] = st.self_ns / 1e9
        values[f"{name}.bytes"] = st.nbytes
        values[f"{name}.ns_p50"] = tracing.percentile(d, 50) if d else 0
        values[f"{name}.ns_p99"] = tracing.percentile(d, 99) if d else 0
    for (name, kind), d in by_kind.items():
        values[f"{name}.{kind}.ns_p50"] = tracing.percentile(d, 50)
    for name in tracing.COUNTERS:
        values[name] = counters.get(name, 0)
    calls = values["protocol.ingest.calls"]
    values["protocol.ingest.accepted_ratio"] = (
        values["protocol.ingest.accepted"] / calls if calls else 0)
    server_ns, wait_ns = tcp_frames(server_threads, client_threads)
    values["protocol.tcp.server_ns_p50"] = tracing.percentile(server_ns, 50) if server_ns else 0
    values["protocol.tcp.wait_ns_p50"] = tracing.percentile(wait_ns, 50) if wait_ns else 0
    values["protocol.tcp.frame_bytes"] = values["protocol.encode_frame.bytes"]
    return values, stats, durations, (server_ns, wait_ns)


_KIND_METRIC = re.compile(r"^(?P<layer>.+)\.[A-Z][A-Za-z]*\.ns_p50$")


def pick(values: dict, name: str):
    """A per-layer metric by its BENCHMARK.json name. A record kind that no
    span of this workload carried reads 0; a name no layer defines is an
    error."""
    if name in values:
        return values[name]
    m = _KIND_METRIC.match(name)
    if m and m.group("layer") in tracing.LAYER_NAMES:
        return 0
    raise KeyError(f"no layer defines metric {name!r}")


def measure_traced(workload, spans_path, lines: list[str]):
    workload.setup()
    plain = workload.round()
    workload.setup(traced=True)
    tracer = tracing.Tracer()
    traced = workload.round(tracer)
    threads = {**tracer.threads,
               **{"hub:" + tid: spans for tid, spans in traced.server_threads.items()}}
    values, stats, durations, (server_ns, wait_ns) = layer_values(
        threads, tracer.counters + Counter(traced.server_counters),
        traced.server_threads, tracer.threads)
    values["trace.overhead_s"] = traced.elapsed_s - plain.elapsed_s
    tracing.write_spans(spans_path, threads)

    lines.append(f"untraced {plain.elapsed_s:.3f} s, traced {traced.elapsed_s:.3f} s; "
                 f"spans in {spans_path}")
    total_self = sum(st.self_ns for st in stats.values()) or 1
    lines.append(f"{'layer':28} {'calls':>9} {'self_s':>10} {'share':>7}")
    for layer, st in sorted(stats.items(), key=lambda kv: -kv[1].self_ns):
        lines.append(f"{layer:28} {st.calls:9d} {st.self_ns / 1e9:10.4f} "
                     f"{100.0 * st.self_ns / total_self:6.2f}%")
    for layer in ("canon.decode", "canon.encode", "protocol.ingest",
                  "protocol.tcp.submit", "deid.deidentify"):
        if durations.get(layer):
            lines.append(tracing.describe_tail(layer, durations[layer], 1.0, "ns"))
    if server_ns:
        lines.append(tracing.describe_tail("tcp server per frame", server_ns, 1.0, "ns"))
        lines.append(tracing.describe_tail("tcp client wait per frame", wait_ns, 1.0, "ns"))
    return values, [plain, traced]


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="labelloop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for key in [k for k in os.environ if k.startswith("LABELLOOP_")]:
        del os.environ[key]
    try:
        srcpath.use_checkout_src()
        spec = load_spec()
    except (srcpath.MissingSources, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    workload = None
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        if args.trace:
            (WORK / "traces").mkdir(exist_ok=True)
            spans_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.spans.tsv"
            values, rounds = measure_traced(workload, spans_path, lines)
            wanted = spec["per_layer"]
            metrics = {m["name"]: {"value": pick(values, m["name"]), "unit": m["unit"]}
                       for m in wanted}
        else:
            values, rounds = measure(workload, seconds, lines)
            wanted = spec["end_to_end"]
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in wanted}
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for problem in r.problems:
            lines.append(f"FAILED: {problem}")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']} {m['unit']}")
    lines.append(f"ops_attempted {attempted}, ops_failed {failed}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
