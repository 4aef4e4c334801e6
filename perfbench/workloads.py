"""The benchmark's workloads: seeded inputs, set-up, timed rounds and checks.

Each workload generates its inputs from the seed in its constructor, which is
never timed. ``setup()`` builds the long-lived objects a user of that part of
the system builds once (and replaces those of an earlier call), returning its
wall time. ``round()`` does one fixed unit of work, times it, checks its
outputs outside the timed region and returns a ``Round``. Given a tracer,
``round()`` installs it around the timed region only, so that the checks
are never traced. Given a ``speed.SpeedProbe``, ``round()`` samples it
about every 0.1 s (in ``hub_tcp`` with every connection paused) and leaves
the sampling time out of its own.

Import this module only after ``srcpath.use_checkout_src()``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import selectors
import shutil
import socket
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

from labelloop import canon, cli, deid, harness, model, protocol, reports
from labelloop.protocol import AckStatus, EnvelopeKind

import tracing

HERE = Path(__file__).resolve().parent


@dataclass
class Round:
    elapsed_s: float
    studies: int  # studies whose work the round carried
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    peak_rss_kb: int | None = None  # of a process other than this one
    server_threads: dict = field(default_factory=dict)  # spans of that process
    server_counters: dict = field(default_factory=dict)  # and its counts


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# reference: the whole loop through the CLI


def check_bundle(out_dir: Path, exit_code: int, expected_digest: str | None):
    """Problems with one simulate run's output, and the digest of its bytes."""
    problems = []
    if exit_code != 0:
        problems.append(f"simulate exited {exit_code}")
    verdict_path = out_dir / "audit.verdict"
    verdict = verdict_path.read_text("utf-8").strip() if verdict_path.exists() else None
    if verdict != "ok":
        problems.append(f"audit.verdict reads {verdict!r}")
    sink = io.StringIO()
    code = cli.cmd_verify_audit(str(out_dir), out=sink, err=sink)
    if code != 0:
        problems.append(f"verify-audit exited {int(code)}: {sink.getvalue().strip()}")
    digest = _tree_digest(out_dir) if out_dir.is_dir() else ""
    if expected_digest is not None and digest != expected_digest:
        problems.append("bundle bytes differ from the first run with this seed")
    return problems, digest


@contextmanager
def sampled_per_study(probe, every: int):
    """Inside ``run_scenario``, take a speed sample every ``every`` studies."""
    if probe is None:
        yield
        return
    original = harness.deidentify_study
    calls = 0

    def deidentify_study(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls % every == 0:
            probe.sample()
        return original(*args, **kwargs)

    harness.deidentify_study = deidentify_study
    try:
        yield
    finally:
        harness.deidentify_study = original


class Reference:
    """``cli.cmd_simulate`` on the reference scenario of the seed."""

    SAMPLE_EVERY = 20  # studies between speed samples, about 0.1 s

    def __init__(self, seed: int, workdir: Path, n_studies: int = 2000,
                 drift: bool = True):
        self.workdir = workdir
        self.scenario = workdir / "scenario.json"
        harness.save_scenario(
            harness.make_scenario(seed, n_studies=n_studies, drift=drift),
            self.scenario)
        self.first_digest: str | None = None
        self.rounds = 0
        self.studies = 0

    def setup(self, traced: bool = False) -> float:
        started = time.perf_counter()
        cfg = cli.load_scenario(self.scenario)
        problems = harness.validate_scenario(cfg)
        elapsed = time.perf_counter() - started
        if problems:
            raise ValueError("reference scenario invalid: " + "; ".join(problems))
        self.studies = cfg.n_studies * len(cfg.sites)
        return elapsed

    def round(self, tracer=None, probe=None) -> Round:
        out = self.workdir / f"bundle-{self.rounds}"
        self.rounds += 1
        diag = io.StringIO()
        probed = probe.spent_s if probe is not None else 0.0
        with tracing.installed(tracer), sampled_per_study(probe, self.SAMPLE_EVERY):
            started = time.perf_counter()
            code = cli.cmd_simulate(str(self.scenario), str(out), err=diag)
            elapsed = time.perf_counter() - started
        if probe is not None:
            elapsed -= probe.spent_s - probed
        problems, digest = check_bundle(out, int(code), self.first_digest)
        if self.first_digest is None and not problems:
            self.first_digest = digest
        if problems and diag.getvalue().strip():
            problems.append(diag.getvalue().strip())
        shutil.rmtree(out, ignore_errors=True)
        return Round(elapsed, self.studies, 1, 1 if problems else 0, problems)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# site_boundary: de-identify, extract, envelope and spool, no hub


def reference_cases(seed: int, per_site: int):
    """Raw studies and reports of the reference scenario's sites, drawn from
    the same seeded streams ``run_scenario`` uses, as (site, study, report,
    submission time) in the driver's interleaved order."""
    cfg = harness.make_scenario(seed)
    states = [harness._SiteState(cfg, site, i) for i, site in enumerate(cfg.sites)]
    rngs = {s.site_id: (random.Random(f"{cfg.seed}|case|{s.site_id}"),
                        random.Random(f"{cfg.seed}|report|{s.site_id}"))
            for s in cfg.sites}
    cases = []
    for _ in range(per_site):
        for state in states:
            site = state.site
            sid = site.site_id
            case_rng, report_rng = rngs[sid]
            study, truth = harness.generate_case(case_rng, state.case_mix, state)
            report, _ = harness.render_report(
                truth, site.radiologist, report_rng, study,
                report_uid=f"R-{sid}-{state.study_serial:06d}",
                author_id=f"rad-{sid}-{1 + state.study_serial % 3}")
            cases.append((sid, study, report,
                          study.acquired_at + timedelta(seconds=5400)))
    return cases


# what each study leaves in its site's spool, in order
_SPOOLED = {EnvelopeKind.STUDY: model.StudyRecord,
            EnvelopeKind.REPORT: reports.InteractiveReport,
            EnvelopeKind.LABELSET: reports.LabelSet}


def check_site_round(cases, spool_dir: Path):
    """Read the spool back, one line at a time: each study must have left a
    STUDY, a REPORT and a LABELSET envelope that parse back through
    ``envelope_from_line``, and its de-identified study and report must not
    contain any raw PHI token of the original study. Returns the number of
    failed studies and a description of each failure."""
    failed, problems = 0, []
    with ExitStack() as stack:
        spooled = {path.name[:-len(".env.jsonl")]:
                   stack.enter_context(open(path, encoding="utf-8"))
                   for path in spool_dir.glob("*.env.jsonl")}
        for sid, study, _report, _at in cases:
            bad, records = [], {}
            for kind, record_cls in _SPOOLED.items():
                line = next(spooled[sid], None) if sid in spooled else None
                if line is None:
                    bad.append(f"{kind.name} envelope missing from spool")
                    continue
                try:
                    envelope = protocol.envelope_from_line(line.rstrip("\n"))
                    if envelope.kind is not kind or envelope.site_id != sid:
                        raise protocol.FrameError(
                            f"{envelope.site_id} {envelope.kind.name} in place of {kind.name}")
                    records[kind] = canon.canonical_decode(envelope.payload, record_cls)
                except (protocol.FrameError, protocol.IntegrityError,
                        protocol.VersionError, canon.CanonError) as err:
                    bad.append(f"{kind.name} line of {sid}: {err}")
            if EnvelopeKind.STUDY in records and EnvelopeKind.REPORT in records:
                leaks = deid.verify_deidentified(
                    records[EnvelopeKind.STUDY], [records[EnvelopeKind.REPORT]],
                    study.identity.phi_tokens)
                if leaks:
                    bad.append(f"{len(leaks)} PHI leak(s), first in {leaks[0].field_path}")
            if bad:
                failed += 1
                problems.append(f"{study.study_uid}: " + "; ".join(bad))
        for sid, f in spooled.items():
            extra = sum(1 for _ in f)
            if extra:
                failed += 1
                problems.append(f"{sid}: {extra} spool lines no study wrote")
    return failed, problems


class SiteBoundary:
    """The site half of the loop for pre-generated reference studies."""

    SAMPLE_EVERY = 100  # studies between speed samples, about 0.1 s

    def __init__(self, seed: int, workdir: Path, per_site: int = 1000):
        self.workdir = workdir
        self.cases = reference_cases(seed, per_site)
        self.secrets = {
            sid: hashlib.sha256(f"perfbench-site|{seed}|{sid}".encode()).digest()
            for sid in dict.fromkeys(c[0] for c in self.cases)}
        self.policies: dict = {}
        self.rounds = 0
        self.first_spool: str | None = None

    def setup(self, traced: bool = False) -> float:
        started = time.perf_counter()
        policies = {sid: deid.default_policy(secret)
                    for sid, secret in self.secrets.items()}
        for policy in policies.values():
            policy.validate()
        elapsed = time.perf_counter() - started
        self.policies = policies
        return elapsed

    def round(self, tracer=None, probe=None) -> Round:
        spool = self.workdir / f"spool-{self.rounds}"
        self.rounds += 1
        spool.mkdir(parents=True)
        policies = self.policies
        every = self.SAMPLE_EVERY if probe is not None else 0
        probed = probe.spent_s if probe is not None else 0.0
        with tracing.installed(tracer):
            started = time.perf_counter()
            for i, (sid, study, report, at) in enumerate(self.cases, 1):
                if every and i % every == 0:
                    probe.sample()
                if tracer is not None:
                    tracer.set_corr(study.study_uid)
                d_study, d_reports, _receipt = deid.deidentify_study(
                    study, [report], policies[sid], now=at)
                d_report = d_reports[0]
                labels, _diags = reports.extract_labels(
                    reports.parse_body(d_report, d_study))
                labelset = reports.LabelSet(report_uid=d_report.report_uid,
                                            study_uid=d_study.study_uid,
                                            labels=labels)
                envelopes = [
                    protocol.make_envelope(sid, EnvelopeKind.STUDY, d_study, at),
                    protocol.make_envelope(sid, EnvelopeKind.REPORT, d_report, at),
                    protocol.make_envelope(sid, EnvelopeKind.LABELSET, labelset, at)]
                protocol.write_spool(spool, sid, envelopes)
            elapsed = time.perf_counter() - started
        if probe is not None:
            elapsed -= probe.spent_s - probed
        if tracer is not None:
            tracer.count("protocol.spool.bytes",
                         sum(p.stat().st_size for p in spool.iterdir()))
        # every round writes the same bytes; a round identical to a checked
        # one needs no second check
        digest = _tree_digest(spool)
        if digest == self.first_spool:
            failed, problems = 0, []
        else:
            failed, problems = check_site_round(self.cases, spool)
            if self.first_spool is None and not failed:
                self.first_spool = digest
        shutil.rmtree(spool, ignore_errors=True)
        return Round(elapsed, len(self.cases), len(self.cases), failed, problems)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# hub_tcp: a hub process fed over TCP by one closed-loop client per site


class HubProcess:
    """``hub_server.py`` in its own interpreter, so that the client's encoding
    and the hub's decoding do not share one interpreter lock."""

    START_TIMEOUT_S = 60.0

    def __init__(self, trace_path: Path | None = None):
        cmd = [sys.executable, "-E", "-s", str(HERE / "hub_server.py")]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=HERE.parent, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.port = int(self._read_line().split()[1])
            # ready means it answers a connection
            with socket.create_connection(("127.0.0.1", self.port), timeout=10):
                pass
        except BaseException:
            self.kill()
            raise
        self.start_s = time.perf_counter() - started

    def _read_line(self) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(self.START_TIMEOUT_S):
                raise TimeoutError("hub process did not report its port")
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError(f"hub process failed to start: {line!r}")
        return line

    def stop(self) -> dict:
        out, _ = self.proc.communicate("stop\n", timeout=120)
        if self.proc.returncode != 0:
            raise RuntimeError(f"hub process exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def check_acks(records, unique: int, stored: int | None):
    """Pass 1 must be all ACCEPTED and pass 2 all DUPLICATE for the same
    envelope, and the hub must hold each envelope once.

    ``records`` holds (pass, envelope, ack or None, latency_ns) tuples.
    Returns (attempted, failed, problems)."""
    failed, problems = 0, []
    statuses: Counter = Counter()
    for pass_no, envelope, ack, _latency in records:
        expected = AckStatus.ACCEPTED if pass_no == 1 else AckStatus.DUPLICATE
        status = ack.status if ack is not None else None
        statuses[status.name if status else "NO_ACK"] += 1
        if status is not expected or ack.envelope_id != envelope.envelope_id:
            failed += 1
            if len(problems) < 5:
                problems.append(f"pass {pass_no} {envelope.idempotency_key}: "
                                f"{status.name if status else 'no ack'}"
                                f"{' ' + ack.reason if ack is not None and ack.reason else ''}")
    attempted = len(records) + 1
    if stored != unique:
        failed += 1
        problems.append(f"hub stored {stored} envelopes, expected {unique}")
    if statuses.get("REJECTED"):
        problems.append(f"{statuses['REJECTED']} REJECTED")
    return attempted, failed, problems


class HubTcp:
    """Each site's envelopes of a drift-free two-site scenario, sent twice
    over one connection per site to a fresh hub process."""

    # submissions per connection between speed samples, about 0.1 s; at each
    # sample every connection waits with no envelope in flight
    SAMPLE_EVERY = 50

    def __init__(self, seed: int, workdir: Path, per_site: int = 400):
        self.workdir = workdir
        cfg = harness.make_scenario(seed, n_sites=2, n_studies=per_site, drift=False)
        envelopes = harness.run_scenario(cfg).hub.envelopes()
        self.by_site: dict[str, list] = defaultdict(list)
        for envelope in envelopes:
            self.by_site[envelope.site_id].append(envelope)
        self.unique = len(envelopes)
        self.studies = cfg.n_studies * len(cfg.sites)
        self.hub: HubProcess | None = None
        self.trace_path: Path | None = None

    def setup(self, traced: bool = False) -> float:
        self.close()
        self.trace_path = self.workdir / "hub-spans.tsv" if traced else None
        self.hub = HubProcess(self.trace_path)
        return self.hub.start_s

    def round(self, tracer=None, probe=None) -> Round:
        hub, self.hub = self.hub, None
        records: dict[str, list] = {sid: [] for sid in self.by_site}
        errors: list[str] = []
        every = self.SAMPLE_EVERY
        # the same number of stops on every connection, each before a submission
        stops = (min(2 * len(e) for e in self.by_site.values()) - 1) // every
        sync = (threading.Barrier(len(self.by_site), action=probe.sample, timeout=60)
                if probe is not None else None)
        probed = probe.spent_s if probe is not None else 0.0

        def pump(sid: str, envelopes: list) -> None:
            out = records[sid]
            sent = 0
            try:
                with protocol.TcpClient("127.0.0.1", hub.port, timeout=30.0) as tcp:
                    for pass_no in (1, 2):
                        for envelope in envelopes:
                            if sync is not None and sent % every == 0 \
                                    and 0 < sent // every <= stops:
                                try:
                                    sync.wait()
                                except threading.BrokenBarrierError:
                                    pass  # another connection failed
                            sent += 1
                            t0 = time.perf_counter_ns()
                            try:
                                ack = tcp.submit(envelope)
                            except protocol.TransientStoreError as err:
                                ack = None
                                errors.append(f"{sid}: {err}")
                            out.append((pass_no, envelope, ack,
                                        time.perf_counter_ns() - t0))
            except Exception as err:  # reported as failed submissions below
                errors.append(f"{sid}: {type(err).__name__}: {err}")
                if sync is not None:
                    sync.abort()

        threads = [threading.Thread(target=pump, args=item, name=f"pump-{item[0]}")
                   for item in self.by_site.items()]
        try:
            with tracing.installed(tracer):
                started = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                elapsed = time.perf_counter() - started
            if probe is not None:
                elapsed -= probe.spent_s - probed
            stats = hub.stop()
        finally:
            hub.kill()
        flat = [r for sid in self.by_site for r in records[sid]]
        attempted, failed, problems = check_acks(flat, self.unique, stats["stored"])
        missing = 2 * self.unique - len(flat)
        if missing:
            attempted += missing
            failed += missing
            problems.append(f"{missing} envelopes never submitted")
        problems += errors[:5]
        server_threads = {}
        if self.trace_path is not None:
            server_threads = tracing.read_spans(self.trace_path)
            self.trace_path.unlink()
        return Round(elapsed, 2 * self.studies, attempted, failed, problems,
                     latencies_ns=[r[3] for r in flat],
                     peak_rss_kb=stats["peak_rss_kb"],
                     server_threads=server_threads,
                     server_counters=stats.get("counters", {}))

    def close(self) -> None:
        if self.hub is not None:
            self.hub.kill()
            self.hub = None
