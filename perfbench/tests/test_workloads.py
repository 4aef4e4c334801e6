"""Small runs of each workload: the checks pass on real output, and a
deliberately corrupted output is counted as a failed operation."""

from pathlib import Path

import pytest
from labelloop import protocol

import run
import workloads


def test_reference_round_passes_its_checks(tmp_path):
    w = workloads.Reference(7, tmp_path, n_studies=30, drift=False)
    assert w.setup() > 0
    first, second = w.round(), w.round()
    for r in (first, second):
        assert (r.attempted, r.failed, r.problems) == (1, 0, [])
        assert r.studies == 90 and r.elapsed_s > 0
    assert w.first_digest is not None


def test_reference_counts_a_tampered_audit_log(tmp_path, monkeypatch):
    w = workloads.Reference(7, tmp_path, n_studies=30, drift=False)
    w.setup()
    real = workloads.cli.cmd_simulate

    def tampering(scenario, out_dir, **kwargs):
        code = real(scenario, out_dir, **kwargs)
        log = Path(out_dir) / "audit.log"
        lines = log.read_text("utf-8").splitlines()
        lines[0] = lines[0].replace('"actor":"hub"', '"actor":"hux"')
        log.write_text("\n".join(lines) + "\n", "utf-8")
        return code

    monkeypatch.setattr(workloads.cli, "cmd_simulate", tampering)
    r = w.round()
    assert (r.attempted, r.failed) == (1, 1)
    assert any("verify-audit exited 3" in p for p in r.problems)


def test_reference_counts_bundle_bytes_that_change_between_runs(tmp_path):
    w = workloads.Reference(7, tmp_path, n_studies=30, drift=False)
    w.setup()
    w.round()
    w.first_digest = "0" * 64
    r = w.round()
    assert r.failed == 1
    assert "bundle bytes differ" in r.problems[0]


def test_site_boundary_round_passes_its_checks(tmp_path):
    w = workloads.SiteBoundary(7, tmp_path, per_site=4)
    w.setup()
    for _ in range(2):
        r = w.round()
        assert (r.attempted, r.failed, r.problems) == (12, 0, [])
    assert not list(tmp_path.iterdir())


def test_site_boundary_counts_a_corrupted_spool_line(tmp_path, monkeypatch):
    w = workloads.SiteBoundary(7, tmp_path, per_site=4)
    w.setup()
    real = protocol.write_spool
    calls = []

    def corrupting(spool_dir, name, envelopes):
        path = real(spool_dir, name, envelopes)
        calls.append(path)
        if len(calls) == 5:
            text = path.read_text("utf-8")
            head, _, last = text[:-1].rpartition("\n")
            last = last.replace('"schema_version":1', '"schema_version":2')
            path.write_text(head + "\n" + last + "\n", "utf-8")
        return path

    monkeypatch.setattr(protocol, "write_spool", corrupting)
    r = w.round()
    assert (r.attempted, r.failed) == (12, 1)
    assert "unsupported schema_version 2" in r.problems[0]


def test_site_boundary_counts_a_phi_leak(tmp_path, monkeypatch):
    w = workloads.SiteBoundary(7, tmp_path, per_site=2)
    w.setup()
    real = workloads.deid.deidentify_study

    def leaking(study, reports, policy, now=None):
        d_study, d_reports, receipt = real(study, reports, policy, now=now)
        leaked = type(d_study)(**{**d_study.__dict__, "order_text": study.order_text})
        return leaked, d_reports, receipt

    monkeypatch.setattr(workloads.deid, "deidentify_study", leaking)
    r = w.round()
    assert r.failed == r.attempted == 6
    assert "PHI leak" in r.problems[0]


def test_hub_tcp_round_passes_its_checks(tmp_path):
    w = workloads.HubTcp(7, tmp_path, per_site=4)
    try:
        assert w.setup() > 0
        r = w.round()
    finally:
        w.close()
    assert r.failed == 0, r.problems
    assert r.attempted == 2 * w.unique + 1
    assert len(r.latencies_ns) == 2 * w.unique
    assert r.peak_rss_kb > 0
    assert w.hub is None


def test_traced_hub_tcp_merges_the_hub_process_spans_and_counts(tmp_path):
    w = workloads.HubTcp(7, tmp_path / "w", per_site=4)
    (tmp_path / "w").mkdir()
    try:
        values, rounds = run.measure_traced(w, tmp_path / "spans.tsv", [])
    finally:
        w.close()
    assert [r.failed for r in rounds] == [0, 0]
    assert values["protocol.ingest.calls"] == 2 * w.unique
    assert values["protocol.ingest.accepted"] == values["protocol.ingest.duplicate"] == w.unique
    assert values["protocol.ingest.accepted_ratio"] == 0.5
    assert values["protocol.tcp.submit.calls"] == 2 * w.unique
    assert 0 < values["protocol.tcp.server_ns_p50"] < values["protocol.tcp.submit.ns_p50"]
    assert values["protocol.tcp.frame_bytes"] > 0
    assert values["deid.deidentify.calls"] == 0


def test_hub_tcp_counts_an_unexpected_ack(tmp_path, monkeypatch):
    w = workloads.HubTcp(7, tmp_path, per_site=4)
    real = protocol.TcpClient.submit
    seen = []

    def misreporting(self, e):
        ack = real(self, e)
        seen.append(e)
        if len(seen) == 3:
            return protocol.Ack(ack.envelope_id, protocol.AckStatus.REJECTED, "corrupted")
        return ack

    monkeypatch.setattr(protocol.TcpClient, "submit", misreporting)
    try:
        w.setup()
        r = w.round()
    finally:
        w.close()
    assert r.failed == 1
    assert "REJECTED" in r.problems[0]


def test_check_acks_counts_a_lost_envelope():
    e = protocol.make_envelope(
        "siteA", protocol.EnvelopeKind.LABELSET,
        workloads.reports.LabelSet("R1", "S1", []), _now())
    ok = [(1, e, protocol.Ack(e.envelope_id, protocol.AckStatus.ACCEPTED), 5),
          (2, e, protocol.Ack(e.envelope_id, protocol.AckStatus.DUPLICATE), 5)]
    assert workloads.check_acks(ok, 1, 1) == (3, 0, [])
    attempted, failed, problems = workloads.check_acks(ok, 1, 0)
    assert (attempted, failed) == (3, 1)
    assert "stored 0" in problems[0]
    swapped = [(1, *ok[1][1:]), (2, *ok[0][1:])]
    assert workloads.check_acks(swapped, 1, 1)[1] == 2


def test_traced_reference_matches_untraced_and_names_every_layer(tmp_path):
    w = workloads.Reference(7, tmp_path, n_studies=30, drift=False)
    lines = []
    spans = tmp_path / "spans.tsv"
    values, rounds = run.measure_traced(w, spans, lines)
    assert [r.failed for r in rounds] == [0, 0]
    assert values["canon.decode.calls"] > 0
    assert values["harness.driver.calls"] == 1
    assert values["deid.leaks"] == 0
    assert values["protocol.ingest.rejected"] == 0
    assert values["protocol.ingest.accepted_ratio"] == 1.0
    assert spans.stat().st_size > 0
    spec = run.load_spec()
    for m in spec["per_layer"]:
        run.pick(values, m["name"])


def test_pick_rejects_a_metric_no_layer_defines():
    with pytest.raises(KeyError):
        run.pick({}, "canon.nosuch.calls")
    assert run.pick({}, "canon.decode.Alert.ns_p50") == 0


def _now():
    from datetime import datetime, timezone
    return datetime(2024, 1, 1, tzinfo=timezone.utc)
