"""Exit codes, stream discipline, and the report projection."""

import dataclasses
import io
import subprocess
import sys
import threading
from datetime import datetime, timedelta, timezone

import pytest

from conftest import join_or_fail, served
from labelloop.cli import (
    ExitCode, _resolve_override, cmd_hub, cmd_report, cmd_simulate,
    cmd_verify_audit, main,
)
from labelloop.canon import canonical_encode, canonical_decode, digest_text
from labelloop.harness import (
    DriftEvent, DriftKind, RadiologistProfile, ScenarioAssertions,
    make_scenario, save_scenario,
)
from labelloop.model import FindingCode
from labelloop.protocol import (
    DeliveryError, EnvelopeKind, Hub, TcpClient, envelope_from_line,
    make_envelope, submit_batch,
)
from labelloop.registry import AuditAction, AuditEntry, Registry
from labelloop.reports import ExtractedLabel, LabelSet, LabelStrength, Polarity

T0 = datetime(2024, 3, 1, tzinfo=timezone.utc)


def quiet_scenario(seed=13, n_studies=40):
    cfg = make_scenario(seed=seed, n_sites=1, n_algorithms=1,
                        n_studies=n_studies, drift=False)
    return dataclasses.replace(
        cfg, assertions=ScenarioAssertions(expect_no_alerts=True))


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    scenario = root / "scenario.json"
    out = root / "bundle"
    save_scenario(quiet_scenario(), scenario)
    code = cmd_simulate(str(scenario), str(out), err=io.StringIO())
    assert code is ExitCode.OK
    return out


class TestSimulate:
    def test_valid_scenario_exits_zero_and_writes_bundle(self, bundle_dir):
        names = sorted(p.name for p in bundle_dir.iterdir())
        assert names == ["alerts.csv", "alerts.log", "assignments.log",
                         "audit.head", "audit.log", "audit.verdict",
                         "delays.csv", "ledger.csv", "models.log"]
        assert (bundle_dir / "audit.verdict").read_text() == "ok\n"

    def test_bundle_chain_passes_verify_audit(self, bundle_dir):
        out = io.StringIO()
        assert cmd_verify_audit(str(bundle_dir), out=out) is ExitCode.OK
        assert out.getvalue() == "ok\n"

    def test_missing_scenario_file_is_transient_io(self, tmp_path):
        err = io.StringIO()
        code = cmd_simulate(str(tmp_path / "nope.json"),
                            str(tmp_path / "out"), err=err)
        assert code is ExitCode.TRANSIENT_IO
        assert "cannot read scenario" in err.getvalue()

    def test_negative_probability_names_the_field(self, tmp_path):
        cfg = quiet_scenario()
        bad_rad = dataclasses.replace(cfg.sites[0].radiologist,
                                      hyperlink_rate=-0.2)
        bad = dataclasses.replace(
            cfg, sites=[dataclasses.replace(cfg.sites[0],
                                            radiologist=bad_rad)])
        path = tmp_path / "bad.json"
        save_scenario(bad, path)
        err = io.StringIO()
        code = cmd_simulate(str(path), str(tmp_path / "out"), err=err)
        assert code is ExitCode.INVALID
        assert "sites[0].radiologist.hyperlink_rate" in err.getvalue()

    def test_case_rate_too_low_for_the_calendar_is_invalid(self, tmp_path):
        cfg = quiet_scenario(n_studies=5)
        slow = dataclasses.replace(
            cfg, sites=[dataclasses.replace(cfg.sites[0], case_rate=1e-300)])
        path = tmp_path / "slow.json"
        save_scenario(slow, path)
        err = io.StringIO()
        code = cmd_simulate(str(path), str(tmp_path / "out"), err=err)
        assert code is ExitCode.INVALID
        assert err.getvalue() == ("sites[0].case_rate: 1e-300 is too low to date "
                                  "5 studies before the year 10000\n")

    def test_garbage_scenario_file_is_invalid(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json\n")
        code = cmd_simulate(str(path), str(tmp_path / "out"),
                            err=io.StringIO())
        assert code is ExitCode.INVALID

    def test_unmet_assertion_exits_four_but_writes_bundle(self, tmp_path):
        # an unreachable threshold suppresses every alert, so the embedded
        # detection budget cannot be met
        cfg = make_scenario(seed=31, n_sites=1, n_algorithms=1,
                            n_studies=600, drift=True)
        path = tmp_path / "drift.json"
        save_scenario(cfg, path)
        out = tmp_path / "out"
        err = io.StringIO()
        code = cmd_simulate(str(path), str(out), cusum_h=1e9, err=err)
        assert code is ExitCode.ASSERTION_FAILED
        assert "no alert after drift" in err.getvalue()
        assert (out / "ledger.csv").exists()

    def test_seed_flag_and_env_agree(self, tmp_path, monkeypatch):
        scenario = tmp_path / "s.json"
        save_scenario(quiet_scenario(n_studies=15), scenario)

        via_flag = tmp_path / "flag"
        assert cmd_simulate(str(scenario), str(via_flag), seed=99,
                            err=io.StringIO()) is ExitCode.OK
        via_env = tmp_path / "env"
        monkeypatch.setenv("LABELLOOP_SEED", "99")
        assert cmd_simulate(str(scenario), str(via_env),
                            err=io.StringIO()) is ExitCode.OK
        assert (via_flag / "ledger.csv").read_bytes() == \
            (via_env / "ledger.csv").read_bytes()

        # and the flag must win over the environment
        flag_wins = tmp_path / "both"
        assert cmd_simulate(str(scenario), str(flag_wins), seed=99,
                            err=io.StringIO()) is ExitCode.OK
        assert (flag_wins / "ledger.csv").read_bytes() == \
            (via_flag / "ledger.csv").read_bytes()

    def test_malformed_env_override_is_invalid(self, tmp_path, monkeypatch):
        scenario = tmp_path / "s.json"
        save_scenario(quiet_scenario(n_studies=5), scenario)
        monkeypatch.setenv("LABELLOOP_CUSUM_H", "tall")
        err = io.StringIO()
        code = cmd_simulate(str(scenario), str(tmp_path / "out"), err=err)
        assert code is ExitCode.INVALID
        assert "LABELLOOP_CUSUM_H" in err.getvalue()

    def test_resolve_override_precedence(self, monkeypatch):
        monkeypatch.setenv("LABELLOOP_SEED", "7")
        assert _resolve_override(3, "LABELLOOP_SEED", int) == (3, None)
        assert _resolve_override(None, "LABELLOOP_SEED", int) == (7, None)
        monkeypatch.delenv("LABELLOOP_SEED")
        assert _resolve_override(None, "LABELLOOP_SEED", int) == (None, None)


def audit_dir(tmp_path, n=5):
    registry = Registry()
    for i in range(n):
        registry.append_audit(AuditAction.REGISTER, "hub", digest_text(f"payload{i}"),
                              at=T0 + timedelta(minutes=i))
    registry.save(tmp_path)
    return tmp_path


class TestVerifyAudit:
    def test_intact_chain_prints_ok(self, tmp_path, capsys):
        path = audit_dir(tmp_path)
        assert cmd_verify_audit(str(path)) is ExitCode.OK
        captured = capsys.readouterr()
        assert captured.out == "ok\n"
        assert captured.err == ""

    def test_accepts_file_path_as_well_as_directory(self, tmp_path):
        path = audit_dir(tmp_path)
        out = io.StringIO()
        assert cmd_verify_audit(str(path / "audit.log"),
                                out=out) is ExitCode.OK

    def test_tampered_entry_reports_first_broken_seq(self, tmp_path, capsys):
        path = audit_dir(tmp_path)
        log = path / "audit.log"
        lines = log.read_text().splitlines()
        entry = canonical_decode(lines[1], AuditEntry)
        forged = dataclasses.replace(entry, actor="mallory")
        lines[1] = canonical_encode(forged)
        log.write_text("\n".join(lines) + "\n")
        assert cmd_verify_audit(str(path)) is ExitCode.AUDIT_BROKEN
        assert capsys.readouterr().out == "broken at seq 2\n"

    def test_garbled_line_is_broken_not_io(self, tmp_path, capsys):
        path = audit_dir(tmp_path)
        log = path / "audit.log"
        lines = log.read_text().splitlines()
        lines[3] = "{corrupted"
        log.write_text("\n".join(lines) + "\n")
        assert cmd_verify_audit(str(path)) is ExitCode.AUDIT_BROKEN
        assert capsys.readouterr().out == "broken at seq 4\n"

    def test_byte_not_utf8_is_broken_not_a_crash(self, tmp_path, capsys):
        path = audit_dir(tmp_path, n=4)
        log = path / "audit.log"
        data = bytearray(log.read_bytes())
        data[20] = 0xFF
        log.write_bytes(bytes(data))
        assert cmd_verify_audit(str(path)) is ExitCode.AUDIT_BROKEN
        assert capsys.readouterr().out == "broken at seq 1\n"

    def test_lone_surrogate_escape_is_broken_not_a_crash(self, tmp_path, capsys):
        # UTF-8 cannot hold the decoded actor, so the entry has no hash
        path = audit_dir(tmp_path, n=4)
        log = path / "audit.log"
        lines = log.read_text().splitlines()
        lines[2] = lines[2].replace('"actor":"hub"', '"actor":"hub\\udc00"')
        log.write_text("\n".join(lines) + "\n")
        assert cmd_verify_audit(str(path)) is ExitCode.AUDIT_BROKEN
        assert capsys.readouterr().out == "broken at seq 3\n"

    def test_truncation_is_caught_via_the_head(self, tmp_path, capsys):
        path = audit_dir(tmp_path, n=5)
        log = path / "audit.log"
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:3]) + "\n")
        assert cmd_verify_audit(str(path)) is ExitCode.AUDIT_BROKEN
        assert capsys.readouterr().out == "broken at seq 4\n"

    def test_truncation_with_the_head_deleted_is_still_broken(self, tmp_path, capsys):
        path = audit_dir(tmp_path, n=5)
        log = path / "audit.log"
        log.write_text("\n".join(log.read_text().splitlines()[:2]) + "\n")
        (path / "audit.head").unlink()
        assert cmd_verify_audit(str(path)) is ExitCode.AUDIT_BROKEN
        assert capsys.readouterr().out == "broken at seq 2\n"

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085"])
    def test_line_separator_inside_a_field_is_not_a_line_break(
            self, tmp_path, capsys, separator):
        # canonical JSON writes these raw inside strings; only "\n" ends a record
        registry = Registry()
        registry.append_audit(AuditAction.REGISTER, f"ops{separator}team",
                              digest_text("payload"), at=T0)
        registry.save(tmp_path)
        assert separator in (tmp_path / "audit.log").read_text(encoding="utf-8")
        assert cmd_verify_audit(str(tmp_path)) is ExitCode.OK
        assert capsys.readouterr().out == "ok\n"

    def test_missing_file_is_transient_io(self, tmp_path):
        err = io.StringIO()
        code = cmd_verify_audit(str(tmp_path / "absent.log"), err=err)
        assert code is ExitCode.TRANSIENT_IO
        assert "cannot read" in err.getvalue()


class TestReport:
    def test_projects_ledger_groups_and_writes_summary(self, bundle_dir,
                                                       capsys):
        assert cmd_report(str(bundle_dir)) is ExitCode.OK
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0].split() == ["site_id", "algorithm_id", "version",
                                    "sensitivity", "ppv", "alerts",
                                    "delay_events", "false_alarms"]
        ledger_keys = {tuple(line.split(",")[:3]) for line in
                       (bundle_dir / "ledger.csv").read_text()
                       .splitlines()[1:]}
        table_keys = {tuple(line.split()[:3]) for line in lines[1:]}
        assert ledger_keys <= table_keys
        summary = (bundle_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == ("site_id,algorithm_id,version,sensitivity,ppv,"
                              "alerts,delay_events,false_alarms")
        assert len(summary) == len(lines)

    def test_rerun_is_byte_identical(self, bundle_dir):
        out = io.StringIO()
        assert cmd_report(str(bundle_dir), out=out) is ExitCode.OK
        first = (bundle_dir / "summary.csv").read_bytes()
        assert cmd_report(str(bundle_dir), out=io.StringIO()) is ExitCode.OK
        assert (bundle_dir / "summary.csv").read_bytes() == first

    def test_empty_bundle_dir_is_invalid(self, tmp_path):
        err = io.StringIO()
        code = cmd_report(str(tmp_path), err=err)
        assert code is ExitCode.INVALID
        assert "incomplete bundle" in err.getvalue()

    def test_missing_bundle_dir_is_transient_io(self, tmp_path):
        code = cmd_report(str(tmp_path / "nowhere"), err=io.StringIO())
        assert code is ExitCode.TRANSIENT_IO


def sample_envelope(n=0):
    label = ExtractedLabel(f"R{n}", f"S{n}", FindingCode.NODULE,
                           Polarity.POSITIVE, LabelStrength.TEXT_ONLY, 0)
    return make_envelope("siteZ", EnvelopeKind.LABELSET,
                         LabelSet(f"R{n}", f"S{n}", [label]), T0)


def run_hub(drive, **kwargs) -> ExitCode:
    """``cmd_hub`` on a free port while ``drive(server)`` runs on a thread of
    its own and then shuts the hub down. The hub must return within seconds
    of that, so a wedged loop fails the test instead of hanging the suite."""
    codes = []

    def on_ready(server):
        def run():
            try:
                drive(server)
            finally:
                server.shutdown()
        threading.Thread(target=run, daemon=True).start()

    hub = threading.Thread(
        target=lambda: codes.append(cmd_hub("127.0.0.1:0", on_ready=on_ready, **kwargs)),
        daemon=True)
    hub.start()
    join_or_fail(hub, "labelloop hub")
    return codes[0]


class TestHub:
    def test_bad_listen_string_is_invalid(self):
        err = io.StringIO()
        assert cmd_hub("nonsense", err=err) is ExitCode.INVALID
        assert "ADDR:PORT" in err.getvalue()

    def test_a_port_in_use_is_transient_io(self):
        err = io.StringIO()
        with served(Hub()) as (host, port):
            assert cmd_hub(f"{host}:{port}", err=err) is ExitCode.TRANSIENT_IO
        assert f"cannot bind {host}:{port}" in err.getvalue()

    def test_serves_ingest_and_spools_once(self, tmp_path):
        spool = tmp_path / "spool"
        envelopes = [sample_envelope(i) for i in range(4)]
        acks = []

        def drive(server):
            with TcpClient(*server.server_address) as tcp:
                for e in envelopes + envelopes:  # duplicates too
                    acks.append(tcp.submit(e).status.name)

        err = io.StringIO()
        assert run_hub(drive, spool_dir=str(spool), err=err) is ExitCode.OK
        assert "listening on 127.0.0.1:" in err.getvalue()
        assert acks == ["ACCEPTED"] * 4 + ["DUPLICATE"] * 4
        # duplicates are acknowledged but never spooled
        lines = (spool / "siteZ.env.jsonl").read_text().splitlines()
        assert len(lines) == 4
        assert {envelope_from_line(l).idempotency_key for l in lines} == \
            {e.idempotency_key for e in envelopes}

    def test_failed_spool_write_stores_nothing_and_gets_no_ack(self, tmp_path):
        spool = tmp_path / "spool"
        blocker = spool / "siteZ.env.jsonl"
        blocker.mkdir(parents=True)  # opening it for append fails
        e = sample_envelope()
        outcome = {}

        def drive(server):
            with TcpClient(*server.server_address) as tcp:
                try:
                    submit_batch(tcp, [e], sleep=lambda s: None)
                except DeliveryError as err:
                    outcome["undelivered"] = err.undelivered
                outcome["stored"] = server.hub.stored_count()
                blocker.rmdir()
                outcome["acks"] = [a.status.name for a in submit_batch(tcp, [e, e])]

        assert run_hub(drive, spool_dir=str(spool), err=io.StringIO()) is ExitCode.OK
        assert outcome["undelivered"] == [e.envelope_id]
        assert outcome["stored"] == 0
        assert outcome["acks"] == ["ACCEPTED", "DUPLICATE"]
        lines = blocker.read_text().splitlines()
        assert [envelope_from_line(l) for l in lines] == [e]


class TestMain:
    def test_dispatch_and_exit_code(self, tmp_path, capsys):
        path = audit_dir(tmp_path)
        assert main(["verify-audit", str(path)]) == 0
        capsys.readouterr()

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_module_is_runnable(self, tmp_path):
        path = audit_dir(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "labelloop.cli", "verify-audit", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "ok\n"
