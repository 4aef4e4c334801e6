"""Operator entry points.

Four subcommands cover the deployment plumbing: ``simulate`` runs a scenario
file and writes its metrics bundle, ``hub`` hosts the ingest endpoint,
``verify-audit`` checks a hash chain, and ``report`` folds a bundle into a
per-(site, algorithm, version) summary.

Exit codes are part of the contract and stable: 0 ok, 2 invalid input or
config, 3 audit chain broken, 4 scenario assertion failed, 5 transient I/O
failure. Diagnostics go to stderr; stdout carries only machine-readable
output (the verify verdict, the report table).

Config precedence is flags > environment > file: ``--seed`` overrides
``LABELLOOP_SEED`` overrides the scenario's stored seed, and ``--cusum-h``
overrides ``LABELLOOP_CUSUM_H`` overrides the built-in detection threshold;
a threshold that is not finite and > 0 is a config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import math
import os
import sys
from pathlib import Path

from .canon import CanonError, write_lines
from .harness import load_scenario, run_scenario, validate_scenario
from .monitoring import DEFAULT_CUSUM_H
from .protocol import Hub, HubServer
from .registry import ChainDecodeError, Registry, verify_audit_chain

SEED_ENV_VAR = "LABELLOOP_SEED"
CUSUM_H_ENV_VAR = "LABELLOOP_CUSUM_H"

SUMMARY_HEADER = ("site_id,algorithm_id,version,sensitivity,ppv,"
                  "alerts,delay_events,false_alarms")


class ExitCode(enum.IntEnum):
    OK = 0
    INVALID = 2
    AUDIT_BROKEN = 3
    ASSERTION_FAILED = 4
    TRANSIENT_IO = 5


# ---------------------------------------------------------------------------
# simulate


def _resolve_override(flag, env_name: str, parse):
    """flag > environment > None; a malformed env value is a config error."""
    if flag is not None:
        return flag, None
    raw = os.environ.get(env_name)
    if raw is None or raw == "":
        return None, None
    try:
        return parse(raw), None
    except ValueError:
        return None, f"{env_name}: cannot parse {raw!r}"


def cmd_simulate(scenario_path: str, out_dir: str, seed: int | None = None,
                 cusum_h: float | None = None, err=None) -> ExitCode:
    err = err or sys.stderr
    try:
        cfg = load_scenario(scenario_path)
    except OSError as e:
        print(f"cannot read scenario: {e}", file=err)
        return ExitCode.TRANSIENT_IO
    except (CanonError, ValueError, TypeError, KeyError) as e:
        print(f"scenario does not parse: {e}", file=err)
        return ExitCode.INVALID

    seed, bad = _resolve_override(seed, SEED_ENV_VAR, int)
    if bad:
        print(bad, file=err)
        return ExitCode.INVALID
    h_source = CUSUM_H_ENV_VAR if cusum_h is None else "--cusum-h"
    cusum_h, bad = _resolve_override(cusum_h, CUSUM_H_ENV_VAR, float)
    if bad:
        print(bad, file=err)
        return ExitCode.INVALID
    # nan and inf switch the detector off; 0 and below fire on in-control noise
    if cusum_h is not None and not 0 < cusum_h < math.inf:
        print(f"{h_source}: must be finite and > 0, got {cusum_h!r}", file=err)
        return ExitCode.INVALID

    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    problems = validate_scenario(cfg)
    if problems:
        for problem in problems:
            print(problem, file=err)
        return ExitCode.INVALID

    try:
        result = run_scenario(cfg, DEFAULT_CUSUM_H if cusum_h is None else cusum_h)
    except Exception as e:
        print(f"scenario run failed: {e}", file=err)
        return ExitCode.INVALID
    try:
        result.bundle.write(out_dir)
        # persist the registry logs beside the bundle so verify-audit can
        # re-check the chain out of process
        result.registry.save(out_dir)
    except OSError as e:
        print(f"cannot write bundle: {e}", file=err)
        return ExitCode.TRANSIENT_IO

    if result.assertion_failures:
        for failure in result.assertion_failures:
            print(f"assertion failed: {failure}", file=err)
        return ExitCode.ASSERTION_FAILED
    print(f"bundle written to {out_dir}", file=err)
    return ExitCode.OK


# ---------------------------------------------------------------------------
# hub


def _parse_listen(listen: str) -> tuple[str, int] | None:
    host, _, port_s = listen.rpartition(":")
    if not host or not port_s.isdigit():
        return None
    port = int(port_s)
    if port > 65535:
        return None
    return host, port


def cmd_hub(listen: str, spool_dir: str | None = None, on_ready=None) -> ExitCode:
    """Host the ingest endpoint until interrupted.

    ``on_ready`` receives the bound server before serving starts; the
    default of None leaves plain serve-until-SIGINT behaviour.
    """
    err = sys.stderr
    addr = _parse_listen(listen)
    if addr is None:
        print(f"--listen must be ADDR:PORT, got {listen!r}", file=err)
        return ExitCode.INVALID

    if spool_dir is not None:
        try:
            Path(spool_dir).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            print(f"cannot create spool dir: {e}", file=err)
            return ExitCode.TRANSIENT_IO
    try:
        server = HubServer(addr, Hub(spool_dir=spool_dir))
    except OSError as e:
        print(f"cannot bind {listen}: {e}", file=err)
        return ExitCode.TRANSIENT_IO
    host, port = server.server_address[0], server.server_address[1]
    print(f"listening on {host}:{port}", file=err)
    if on_ready is not None:
        on_ready(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return ExitCode.OK


# ---------------------------------------------------------------------------
# verify-audit


def cmd_verify_audit(log_path: str, out=None, err=None) -> ExitCode:
    out, err = out or sys.stdout, err or sys.stderr
    try:
        broken = verify_audit_chain(*Registry.load_chain(log_path))
    except OSError as e:
        print(f"cannot read audit log: {e}", file=err)
        return ExitCode.TRANSIENT_IO
    except ChainDecodeError as e:
        # an unparseable record is a broken chain, not an I/O failure
        broken = e.seq
    if broken is not None:
        print(f"broken at seq {broken}", file=out)
        return ExitCode.AUDIT_BROKEN
    print("ok", file=out)
    return ExitCode.OK


# ---------------------------------------------------------------------------
# report


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def cmd_report(bundle_dir: str) -> ExitCode:
    out, err = sys.stdout, sys.stderr
    bundle = Path(bundle_dir)
    if not bundle.is_dir():
        print(f"bundle directory not found: {bundle_dir}", file=err)
        return ExitCode.TRANSIENT_IO
    missing = [name for name in
               ("ledger.csv", "alerts.csv", "delays.csv", "audit.verdict")
               if not (bundle / name).exists()]
    if missing:
        print(f"incomplete bundle, missing: {', '.join(missing)}", file=err)
        return ExitCode.INVALID

    try:
        ledger = _read_rows(bundle / "ledger.csv")
        alerts = _read_rows(bundle / "alerts.csv")
        delays = _read_rows(bundle / "delays.csv")
    except OSError as e:
        print(f"cannot read bundle: {e}", file=err)
        return ExitCode.TRANSIENT_IO

    key_of = lambda row: (row["site_id"], row["algorithm_id"], row["version"])
    metrics = {key_of(r): r for r in ledger}
    delay_info = {key_of(r): r for r in delays}
    alert_counts: dict[tuple[str, str, str], int] = {}
    for row in alerts:
        alert_counts[key_of(row)] = alert_counts.get(key_of(row), 0) + 1

    keys = sorted(set(metrics) | set(delay_info) | set(alert_counts))
    header = SUMMARY_HEADER.split(",")
    rows = [header]
    for key in keys:
        m, d = metrics.get(key, {}), delay_info.get(key, {})
        rows.append([key[0], key[1], key[2],
                     m.get("sensitivity", ""), m.get("ppv", ""),
                     str(alert_counts.get(key, 0)),
                     d.get("delay_events", ""),
                     d.get("false_alarms", "")])

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip(),
              file=out)

    try:
        write_lines(bundle / "summary.csv", (",".join(row) for row in rows))
    except OSError as e:
        print(f"cannot write summary.csv: {e}", file=err)
        return ExitCode.TRANSIENT_IO
    return ExitCode.OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelloop",
        description="deployment loop tooling: simulate, ingest, verify, report")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="run a scenario file and write its metrics bundle")
    sim.add_argument("--scenario", required=True, metavar="FILE")
    sim.add_argument("--out", required=True, metavar="DIR")
    sim.add_argument("--seed", type=int, default=None, metavar="U64",
                     help=f"override the scenario seed (or {SEED_ENV_VAR})")
    sim.add_argument("--cusum-h", type=float, default=None, dest="cusum_h",
                     metavar="H",
                     help=f"override the detection threshold (or {CUSUM_H_ENV_VAR})")

    hub = sub.add_parser("hub", help="host the ingest endpoint")
    hub.add_argument("--listen", required=True, metavar="ADDR:PORT")
    hub.add_argument("--spool", default=None, metavar="DIR",
                     help="append accepted envelopes to per-site spool files")

    verify = sub.add_parser("verify-audit", help="check an audit hash chain")
    verify.add_argument("log", metavar="AUDIT_LOG",
                        help="audit log file, or a directory containing one")

    report = sub.add_parser("report", help="summarize a metrics bundle")
    report.add_argument("bundle", metavar="BUNDLE_DIR")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        code = cmd_simulate(args.scenario, args.out, seed=args.seed,
                            cusum_h=args.cusum_h)
    elif args.command == "hub":
        code = cmd_hub(args.listen, spool_dir=args.spool)
    elif args.command == "verify-audit":
        code = cmd_verify_audit(args.log)
    else:
        code = cmd_report(args.bundle)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
