import io
import random
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from support import golden_text
from hypothesis import given, settings, strategies as st

from labelloop.canon import canonical_decode, canonical_encode, digest_text
from labelloop.cli import ExitCode, cmd_verify_audit
from labelloop.registry import (
    AuditAction,
    AuditEntry,
    ChainDecodeError,
    ChainHead,
    ConflictError,
    DeploymentAssignment,
    DeploymentMode,
    GENESIS_HASH,
    ModelRecord,
    ModelStatus,
    Registry,
    StateError,
    entry_hash_of,
    verify_audit_chain,
)

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


def record(alg="cad-lung", ver="1.0", status=ModelStatus.CANDIDATE):
    return ModelRecord(
        algorithm_id=alg, version=ver,
        weights_digest=digest_text(f"{alg}:{ver}"),
        status=status, registered_at=T0,
    )


def assignment(site="siteA", alg="cad-lung", ver="1.0", mode=DeploymentMode.CENTRAL):
    return DeploymentAssignment(site_id=site, algorithm_id=alg, version=ver,
                                mode=mode, active=True)


def deployed_registry(sites=("siteA",), alg="cad-lung", ver="1.0"):
    reg = Registry()
    reg.register_version(record(alg, ver), at=T0)
    reg.set_status(alg, ver, ModelStatus.APPROVED, at=T0)
    reg.set_status(alg, ver, ModelStatus.DEPLOYED, at=T0)
    for site in sites:
        reg.assign_deployment(assignment(site, alg, ver), at=T0)
    return reg


class TestLifecycle:
    def test_register_stores_candidate(self):
        reg = Registry()
        reg.register_version(record(), at=T0)
        assert reg.models["cad-lung", "1.0"].status is ModelStatus.CANDIDATE

    def test_register_duplicate_conflicts_without_audit(self):
        reg = Registry()
        reg.register_version(record(), at=T0)
        before = len(reg.audit)
        with pytest.raises(ConflictError):
            reg.register_version(record(), at=T0)
        assert len(reg.audit) == before

    def test_register_read_back_round_trip(self):
        reg = Registry()
        rec = record()
        reg.register_version(rec, at=T0)
        assert reg.models["cad-lung", "1.0"] == rec

    def test_non_candidate_registration_rejected(self):
        reg = Registry()
        with pytest.raises(StateError):
            reg.register_version(record(status=ModelStatus.DEPLOYED), at=T0)

    def test_legal_transition_path(self):
        reg = deployed_registry()
        assert reg.models["cad-lung", "1.0"].status is ModelStatus.DEPLOYED
        reg.set_status("cad-lung", "1.0", ModelStatus.SUSPENDED, at=T0)
        reg.set_status("cad-lung", "1.0", ModelStatus.DEPLOYED, at=T0)

    @pytest.mark.parametrize("start,target", [
        (ModelStatus.CANDIDATE, ModelStatus.DEPLOYED),
        (ModelStatus.CANDIDATE, ModelStatus.SUSPENDED),
        (ModelStatus.APPROVED, ModelStatus.CANDIDATE),
        (ModelStatus.APPROVED, ModelStatus.SUSPENDED),
        (ModelStatus.DEPLOYED, ModelStatus.CANDIDATE),
        (ModelStatus.DEPLOYED, ModelStatus.APPROVED),
    ])
    def test_illegal_transitions_rejected(self, start, target):
        reg = Registry()
        reg.register_version(record(), at=T0)
        if start is not ModelStatus.CANDIDATE:
            reg.set_status("cad-lung", "1.0", ModelStatus.APPROVED, at=T0)
        if start in (ModelStatus.DEPLOYED, ModelStatus.SUSPENDED):
            reg.set_status("cad-lung", "1.0", ModelStatus.DEPLOYED, at=T0)
        if start is ModelStatus.SUSPENDED:
            reg.set_status("cad-lung", "1.0", ModelStatus.SUSPENDED, at=T0)
        with pytest.raises(StateError):
            reg.set_status("cad-lung", "1.0", target, at=T0)

    def test_deployment_requires_approval_first(self):
        reg = Registry()
        reg.register_version(record(), at=T0)
        with pytest.raises(StateError):
            reg.set_status("cad-lung", "1.0", ModelStatus.DEPLOYED, at=T0)


class TestAssignments:
    def test_assign_then_listed_as_running(self):
        reg = deployed_registry(sites=("siteA",))
        assert reg.list_sites_running("cad-lung", "1.0") == {"siteA"}

    def test_candidate_assignment_rejected(self):
        reg = Registry()
        reg.register_version(record(), at=T0)
        with pytest.raises(StateError):
            reg.assign_deployment(assignment(), at=T0)

    def test_reassign_deactivates_prior_version(self):
        reg = deployed_registry(sites=("siteA",))
        reg.register_version(record(ver="1.1"), at=T0)
        reg.set_status("cad-lung", "1.1", ModelStatus.APPROVED, at=T0)
        reg.set_status("cad-lung", "1.1", ModelStatus.DEPLOYED, at=T0)
        reg.assign_deployment(assignment(ver="1.1"), at=T0)
        active = [a for a in reg.assignments
                  if a.active and a.site_id == "siteA"]
        assert len(active) == 1 and active[0].version == "1.1"
        assert reg.list_sites_running("cad-lung", "1.0") == set()
        assert reg.list_sites_running("cad-lung", "1.1") == {"siteA"}

    def test_multi_site_listing(self):
        reg = deployed_registry(sites=("siteA", "siteB"))
        reg.register_version(record(ver="1.1"), at=T0)
        reg.set_status("cad-lung", "1.1", ModelStatus.APPROVED, at=T0)
        reg.set_status("cad-lung", "1.1", ModelStatus.DEPLOYED, at=T0)
        reg.assign_deployment(assignment("siteC", ver="1.1"), at=T0)
        assert reg.list_sites_running("cad-lung", "1.0") == {"siteA", "siteB"}
        assert reg.list_sites_running("cad-lung", "1.1") == {"siteC"}

    def test_suspension_empties_running_set(self):
        reg = deployed_registry(sites=("siteA", "siteB"))
        reg.set_status("cad-lung", "1.0", ModelStatus.SUSPENDED, at=T0)
        assert reg.list_sites_running("cad-lung", "1.0") == set()

    def test_unknown_version_runs_nowhere(self):
        reg = Registry()
        assert reg.list_sites_running("cad-lung", "9.9") == set()


class TestAuditChain:
    def test_genesis_prev_hash(self):
        reg = Registry()
        entry = reg.append_audit(AuditAction.REGISTER, "hub", digest_text("x"), at=T0)
        assert entry.prev_hash == GENESIS_HASH
        assert entry.seq == 1

    def test_chain_rule(self):
        reg = Registry()
        e1 = reg.append_audit(AuditAction.REGISTER, "hub", digest_text("x"), at=T0)
        e2 = reg.append_audit(AuditAction.ASSIGN, "hub", digest_text("y"), at=T0)
        assert e2.prev_hash == e1.entry_hash
        assert e2.seq == 2

    def test_golden_three_entry_chain(self):
        digests_line, h1, h2, h3 = golden_text("audit_chain.txt").splitlines()
        d1, d2, d3 = digests_line.split()
        assert [d1, d2, d3] == [digest_text("m1"), digest_text("m2"),
                                digest_text("m3")]
        reg = Registry()
        e1 = reg.append_audit(AuditAction.REGISTER, "hub", d1, at=T0)
        e2 = reg.append_audit(AuditAction.STATUS_CHANGE, "hub", d2,
                              at=T0 + timedelta(minutes=5))
        e3 = reg.append_audit(AuditAction.ASSIGN, "ops", d3,
                              at=T0 + timedelta(minutes=10))
        assert [e1.entry_hash, e2.entry_hash, e3.entry_hash] == [h1, h2, h3]
        assert reg.verify() is None

    def test_every_mutation_appends_exactly_one_entry(self):
        reg = deployed_registry(sites=("siteA",))
        # register + 2 status changes + 1 assignment
        assert [e.action for e in reg.audit] == [
            AuditAction.REGISTER, AuditAction.STATUS_CHANGE,
            AuditAction.STATUS_CHANGE, AuditAction.ASSIGN,
        ]


def chain_of(n, seed=0):
    reg = Registry()
    rng = random.Random(seed)
    actions = list(AuditAction)
    for i in range(n):
        reg.append_audit(rng.choice(actions), f"actor{i % 3}",
                         digest_text(f"payload{i}"),
                         at=T0 + timedelta(minutes=i))
    return reg.audit, reg.head()


class TestVerify:
    def test_untouched_chain_ok(self):
        entries, head = chain_of(100)
        assert verify_audit_chain(entries, head) is None

    def test_empty_chain_ok(self):
        assert verify_audit_chain([], None) is None

    def test_payload_edit_detected_at_seq(self):
        entries, head = chain_of(60)
        tampered = list(entries)
        victim = tampered[39]
        tampered[39] = replace(victim, payload_digest=digest_text("forged"))
        assert verify_audit_chain(tampered, head) == 40

    def test_delete_and_renumber_detected(self):
        entries, head = chain_of(60)
        tampered = entries[:39] + [
            replace(e, seq=e.seq - 1) for e in entries[40:]]
        assert verify_audit_chain(tampered, head) == 40

    def test_swap_detected(self):
        entries, head = chain_of(60)
        tampered = list(entries)
        tampered[10], tampered[11] = tampered[11], tampered[10]
        assert verify_audit_chain(tampered, head) == 11

    def test_truncation_detected_via_head(self):
        entries, head = chain_of(60)
        assert verify_audit_chain(entries[:50], head) == 51
        # without the head a prefix is indistinguishable from a short log
        assert verify_audit_chain(entries[:50], None) is None

    def test_extension_beyond_head_detected(self):
        entries, head = chain_of(60)
        assert verify_audit_chain(entries, ChainHead(59, entries[58].entry_hash)) == 60

    def test_head_hash_mismatch_detected(self):
        entries, _ = chain_of(60)
        assert verify_audit_chain(entries, ChainHead(60, "ab" * 32)) == 60

    def test_sub_second_timestamp_edit_detected(self):
        entries, head = chain_of(5)
        tampered = list(entries)
        victim = tampered[2]
        tampered[2] = replace(victim, timestamp=victim.timestamp
                              + timedelta(microseconds=1))
        assert verify_audit_chain(tampered, head) == 3

    def test_sub_second_edit_of_stored_line_detected(self):
        # the hash commits to the timestamp exactly as audit.log stores it
        reg = Registry()
        reg.register_version(record(), at=T0 + timedelta(microseconds=250000))
        line = canonical_encode(reg.audit[0])
        assert '"timestamp":"2024-01-01T00:00:00.25Z"' in line
        forged = canonical_decode(line.replace("00.25Z", "00.26Z"), AuditEntry)
        assert verify_audit_chain([forged], reg.head()) == 1
        assert verify_audit_chain(reg.audit, reg.head()) is None

    def test_random_single_tampers_always_detected(self):
        entries, head = chain_of(40, seed=1)
        rng = random.Random(2)
        for _ in range(150):
            op = rng.choice(["edit", "delete", "swap", "truncate"])
            tampered = list(entries)
            if op == "edit":
                i = rng.randrange(len(tampered))
                field = rng.choice(["payload_digest", "actor", "prev_hash"])
                tampered[i] = replace(tampered[i], **{field: digest_text("evil")})
            elif op == "delete":
                i = rng.randrange(len(tampered))
                del tampered[i]
                if rng.random() < 0.5:
                    tampered = ([replace(e, seq=j + 1)
                                 for j, e in enumerate(tampered)])
            elif op == "swap":
                i = rng.randrange(len(tampered) - 1)
                tampered[i], tampered[i + 1] = tampered[i + 1], tampered[i]
            else:
                tampered = tampered[:rng.randrange(len(tampered))]
            assert verify_audit_chain(tampered, head) is not None, op


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        reg = deployed_registry(sites=("siteA", "siteB"))
        reg.append_audit(AuditAction.INGEST_SUMMARY, "hub",
                         digest_text("summary"), at=T0)
        reg.save(tmp_path)

        def stored(name, cls):
            text = (tmp_path / name).read_text(encoding="utf-8")
            return [canonical_decode(line, cls) for line in text.splitlines()]
        assert stored(Registry.MODELS_LOG, ModelRecord) == sorted(
            reg.models.values(), key=lambda m: (m.algorithm_id, m.version))
        assert stored(Registry.ASSIGNMENTS_LOG, DeploymentAssignment) == reg.assignments
        entries, head = Registry.load_chain(tmp_path)
        assert entries == reg.audit and head == reg.head()
        assert verify_audit_chain(entries, head) is None

    def test_load_chain_with_head(self, tmp_path):
        reg = deployed_registry()
        reg.save(tmp_path)
        entries, head = Registry.load_chain(tmp_path)
        assert head == reg.head()
        assert verify_audit_chain(entries, head) is None

    def test_truncated_file_detected(self, tmp_path):
        reg = deployed_registry(sites=("siteA",))
        reg.save(tmp_path)
        log = tmp_path / Registry.AUDIT_LOG
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:-1]) + "\n")
        entries, head = Registry.load_chain(tmp_path)
        assert verify_audit_chain(entries, head) == len(lines)

    @pytest.mark.parametrize("line", [1, 3])
    def test_byte_not_utf8_breaks_the_chain_at_its_line(self, tmp_path, line):
        deployed_registry().save(tmp_path)
        log = tmp_path / Registry.AUDIT_LOG
        data = bytearray(log.read_bytes())
        start = sum(len(l) + 1 for l in data.split(b"\n")[:line - 1])
        data[start + 20] = 0xFF
        log.write_bytes(bytes(data))
        with pytest.raises(ChainDecodeError) as exc:
            Registry.load_chain(tmp_path)
        assert exc.value.seq == line

    def test_byte_not_utf8_in_the_head_breaks_at_the_last_seq(self, tmp_path):
        deployed_registry().save(tmp_path)
        head = tmp_path / Registry.AUDIT_HEAD
        data = bytearray(head.read_bytes())
        data[5] = 0xFF
        head.write_bytes(bytes(data))
        with pytest.raises(ChainDecodeError) as exc:
            Registry.load_chain(tmp_path)
        assert exc.value.seq == 4

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_edited_byte_gives_a_chain_or_a_decode_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            deployed_registry().save(directory)
            log = directory / Registry.AUDIT_LOG
            raw = bytearray(log.read_bytes())
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
            log.write_bytes(bytes(raw))
            try:
                entries, head = Registry.load_chain(directory)
            except ChainDecodeError as err:
                assert 1 <= err.seq <= 4
            else:
                verify_audit_chain(entries, head)

    @pytest.mark.parametrize("name", [Registry.AUDIT_LOG, Registry.AUDIT_HEAD])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_bytes_give_a_chain_or_a_decode_error(self, name, data):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            deployed_registry().save(directory)
            path = directory / name
            real = path.read_bytes()
            # half arbitrary bytes, half the real file with a splice, which is
            # often a surrogate escape that UTF-8 cannot hold
            escapes = [b"\\ud800", b"\\udbff", b"\\udc00", b"\\udfff\\ud800"]
            splice = st.sampled_from(escapes) | st.binary(max_size=8)
            at = data.draw(st.integers(0, len(real)))
            path.write_bytes(data.draw(
                st.binary(max_size=400)
                | splice.map(lambda b: real[:at] + b + real[at:])))
            try:
                entries, head = Registry.load_chain(directory)
            except ChainDecodeError:
                pass
            else:
                verify_audit_chain(entries, head)
            out = io.StringIO()
            assert cmd_verify_audit(str(directory), out=out, err=out) in (
                ExitCode.OK, ExitCode.AUDIT_BROKEN)

    def test_audit_entries_round_trip_canonically(self):
        entries, _ = chain_of(3)
        for e in entries:
            assert canonical_decode(canonical_encode(e), AuditEntry) == e
