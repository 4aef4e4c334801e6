"""The speed probe: its scale factor, and how the workloads sample it."""

import time

import pytest

import speed
import workloads


def test_scale_is_the_mean_loop_time_over_the_reference():
    probe = speed.SpeedProbe()
    probe.samples = [0.5, 3.5, 5.0]
    assert probe.scale() == pytest.approx(3.0 / speed.REFERENCE_LOOP_S)


def test_a_sample_times_the_loop_and_counts_its_time_as_spent(monkeypatch):
    monkeypatch.setattr(speed, "_loop", lambda n: time.sleep(0.01))
    probe = speed.SpeedProbe()
    probe.burst(3)
    assert len(probe.samples) == 3
    assert min(probe.samples) >= 0.01
    assert probe.spent_s == pytest.approx(sum(probe.samples))


def _slow_loop(n):
    time.sleep(0.2)


def test_a_probed_reference_round_samples_per_study_and_leaves_the_samples_out(
        tmp_path, monkeypatch):
    w = workloads.Reference(7, tmp_path, n_studies=30, drift=False)
    w.setup()
    w.round()
    original = workloads.harness.deidentify_study
    monkeypatch.setattr(workloads.Reference, "SAMPLE_EVERY", 30)
    monkeypatch.setattr(speed, "_loop", lambda n: time.sleep(0.5))
    probe = speed.SpeedProbe()
    r = w.round(probe=probe)
    assert (r.failed, r.problems) == (0, [])  # the same bundle bytes as unprobed
    assert len(probe.samples) == 90 // 30
    assert r.elapsed_s < probe.spent_s
    assert workloads.harness.deidentify_study is original


def test_a_probed_site_boundary_round_samples_per_study(tmp_path, monkeypatch):
    w = workloads.SiteBoundary(7, tmp_path, per_site=4)
    w.setup()
    monkeypatch.setattr(workloads.SiteBoundary, "SAMPLE_EVERY", 5)
    monkeypatch.setattr(speed, "_loop", _slow_loop)
    probe = speed.SpeedProbe()
    r = w.round(probe=probe)
    assert (r.attempted, r.failed) == (12, 0)
    assert len(probe.samples) == 12 // 5
    assert r.elapsed_s < probe.spent_s


def test_a_probed_hub_tcp_round_pauses_every_connection_to_sample(
        tmp_path, monkeypatch):
    w = workloads.HubTcp(7, tmp_path, per_site=4)
    monkeypatch.setattr(workloads.HubTcp, "SAMPLE_EVERY", 5)
    monkeypatch.setattr(speed, "_loop", _slow_loop)
    probe = speed.SpeedProbe()
    try:
        w.setup()
        r = w.round(probe=probe)
    finally:
        w.close()
    assert r.failed == 0, r.problems
    shortest = min(2 * len(e) for e in w.by_site.values())
    assert len(probe.samples) == (shortest - 1) // 5 > 0
    assert max(r.latencies_ns) < 0.2e9  # no sample inside a submission
    assert r.elapsed_s < probe.spent_s
