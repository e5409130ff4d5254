"""The cross-run result store: reuse, hardening, and key semantics.

Covers the trust model end to end: a second identical run is served
bit-identically from the store; truncated entries, stale
``STATE_VERSION`` stamps and hash collisions are skipped loudly (with
the reason on stderr) and the cell recomputes; and the key layer keeps
smoke (``REPRO_FAST``) and full cells, and warmup-inert versus
warmup-relevant config fields, properly apart.
"""

import dataclasses
import json
import pickle

import pytest

from repro import store as store_mod
from repro.sim import SimConfig, SimStats, SimTask, run_matrix_detailed, task_key
from repro.sim.runner import (
    WARMUP_INERT_FIELDS,
    config_to_dict,
    run_simulation_task,
    warmup_fingerprint,
)
from repro.store import STATE_VERSION, ResultStore, get_store, store_root


def tiny_config(**overrides) -> SimConfig:
    defaults = dict(accesses_per_vcpu=300, warmup_accesses_per_vcpu=150)
    defaults.update(overrides)
    return SimConfig(**defaults)


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    """A private, empty store for one test."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    store = get_store()
    assert store is not None and store.counters()["hits"] == 0
    return store


class TestRootResolution:
    def test_unset_defaults_to_home_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        root = store_root()
        assert root is not None and root.parts[-2:] == (".cache", "repro")

    @pytest.mark.parametrize("sentinel", ["0", "off", "none", "disabled", " OFF "])
    def test_sentinels_disable(self, monkeypatch, sentinel):
        monkeypatch.setenv("REPRO_STORE", sentinel)
        assert store_root() is None
        assert get_store() is None

    def test_explicit_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        assert store_root() == tmp_path

    def test_get_store_memoises_per_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "a"))
        first = get_store()
        assert get_store() is first  # same root -> same instance/counters
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "b"))
        assert get_store() is not first


class TestResultReuse:
    def test_second_run_is_a_bit_identical_hit(self, fresh_store):
        task = SimTask(tiny_config(), "fft")
        first = run_simulation_task(task)
        assert fresh_store.counters()["misses"] == 1
        second = run_simulation_task(task)
        assert fresh_store.counters()["hits"] == 1
        assert second.to_dict() == first.to_dict()
        assert json.dumps(second.to_dict(), sort_keys=True) == json.dumps(
            first.to_dict(), sort_keys=True
        )

    def test_matrix_serves_from_store_and_marks_cells(self, fresh_store):
        tasks = [SimTask(tiny_config(seed=s), "fft") for s in (7, 8)]
        first = run_matrix_detailed(tasks, jobs=1)
        assert all(not r.from_store for r in first)
        # One lookup per fresh cell: the worker does not look it up again.
        assert fresh_store.counters()["misses"] == len(tasks)
        second = run_matrix_detailed(tasks, jobs=1)
        assert all(r.from_store and not r.from_checkpoint for r in second)
        assert [r.stats.to_dict() for r in second] == [
            r.stats.to_dict() for r in first
        ]

    def test_custom_task_fn_is_never_served_store_entries(self, fresh_store):
        task = SimTask(tiny_config(seed=11), "fft")
        run_simulation_task(task)  # populate the store for this key
        calls = []

        def fake(t):
            calls.append(t)
            return run_simulation_task(t)

        results = run_matrix_detailed([task], jobs=1, task_fn=fake)
        assert calls, "custom task_fn must run despite a stored result"
        assert not results[0].from_store

    def test_store_and_checkpoints_promote_both_ways(self, fresh_store, tmp_path):
        task = SimTask(tiny_config(seed=21), "fft")
        key = task_key(task)
        ckpt = tmp_path / "campaign"
        # Store hit seeds the campaign's checkpoint directory...
        run_simulation_task(task)
        run_matrix_detailed([task], jobs=1, checkpoint_dir=str(ckpt))
        assert (ckpt / "results" / f"{key}.json").exists()
        # ...and a resumed checkpoint seeds an empty store.
        for entry in fresh_store.results_dir.iterdir():
            entry.unlink()
        resumed = run_matrix_detailed([task], jobs=1, checkpoint_dir=str(ckpt))
        assert resumed[0].from_checkpoint
        assert (fresh_store.results_dir / f"{key}.json").exists()

    def test_stale_campaign_entry_is_recomputed_not_promoted(
        self, fresh_store, tmp_path, capsys
    ):
        task = SimTask(tiny_config(seed=22), "fft")
        key = task_key(task)
        ckpt = tmp_path / "campaign"
        (fresh,) = run_matrix_detailed([task], jobs=1, checkpoint_dir=str(ckpt))
        # An entry from before a STATE_VERSION bump, whose stats the old
        # semantics computed differently; the global store has none.
        entry = ckpt / "results" / f"{key}.json"
        payload = json.loads(entry.read_text())
        payload["state_version"] = STATE_VERSION - 1
        payload["stats"]["l1_accesses"] += 1
        entry.write_text(json.dumps(payload))
        (fresh_store.results_dir / f"{key}.json").unlink()
        capsys.readouterr()

        (rerun,) = run_matrix_detailed([task], jobs=1, checkpoint_dir=str(ckpt))
        assert not rerun.from_checkpoint and not rerun.from_store
        assert rerun.stats.to_dict() == fresh.stats.to_dict()
        err = capsys.readouterr().err
        assert err.count("[repro.store] skipping result") == 1
        assert "state_version" in err
        for path in (entry, fresh_store.results_dir / f"{key}.json"):
            saved = json.loads(path.read_text())
            assert saved["state_version"] == STATE_VERSION
            served = SimStats.from_dict(saved["stats"])
            assert served.to_dict() == fresh.stats.to_dict()

    def test_manifest_reports_store_traffic(self, fresh_store, tmp_path):
        task = SimTask(tiny_config(seed=31), "fft")
        run_simulation_task(task)
        ckpt = tmp_path / "campaign"
        run_matrix_detailed([task], jobs=1, checkpoint_dir=str(ckpt), label="m")
        manifest = json.loads((ckpt / "manifest-m.json").read_text())
        assert manifest["totals"]["from_store"] == 1
        assert manifest["store"]["hits"] >= 1
        assert manifest["tasks"][0]["from_store"] is True
        assert manifest["tasks"][0]["us_per_access"] is None


class TestResultHardening:
    def _stored_entry(self, store):
        task = SimTask(tiny_config(seed=41), "fft")
        run_simulation_task(task)
        (path,) = list(store.results_dir.iterdir())
        return task, path

    def _expect_skip_then_recompute(self, store, task, capsys, reason_part):
        skipped_before = store.counters()["skipped"]
        stats = run_simulation_task(task)
        assert stats is not None  # recomputed, not served
        assert store.counters()["skipped"] == skipped_before + 1
        err = capsys.readouterr().err
        assert "[repro.store] skipping result" in err
        assert reason_part in err

    def test_truncated_entry_is_skipped_loudly(self, fresh_store, capsys):
        task, path = self._stored_entry(fresh_store)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        self._expect_skip_then_recompute(fresh_store, task, capsys, "corrupt entry")

    def test_stale_state_version_is_skipped_loudly(self, fresh_store, capsys):
        task, path = self._stored_entry(fresh_store)
        payload = json.loads(path.read_text())
        payload["state_version"] = STATE_VERSION - 1
        path.write_text(json.dumps(payload))
        self._expect_skip_then_recompute(fresh_store, task, capsys, "state_version")

    def test_key_collision_is_detected_by_identity_payload(self, fresh_store, capsys):
        # Simulate the truncated hash colliding: an entry under this
        # cell's key whose embedded config belongs to a different cell.
        task, path = self._stored_entry(fresh_store)
        payload = json.loads(path.read_text())
        payload["config"]["seed"] = payload["config"]["seed"] + 1
        path.write_text(json.dumps(payload))
        self._expect_skip_then_recompute(fresh_store, task, capsys, "key collision")

    def test_renamed_entry_fails_the_embedded_key_check(self, fresh_store, capsys):
        task, path = self._stored_entry(fresh_store)
        other = SimTask(tiny_config(seed=42), "fft")
        path.rename(path.with_name(f"{task_key(other)}.json"))
        skipped_before = fresh_store.counters()["skipped"]
        run_simulation_task(other)
        assert fresh_store.counters()["skipped"] == skipped_before + 1
        assert "embedded key" in capsys.readouterr().err

    def test_matrix_prints_one_skip_line_per_corrupt_entry(
        self, fresh_store, capsys
    ):
        task, path = self._stored_entry(fresh_store)
        path.write_text("{ truncated")
        (result,) = run_matrix_detailed([task], jobs=1)
        assert result.ok and not result.from_store
        assert fresh_store.counters()["skipped"] == 1
        assert capsys.readouterr().err.count("[repro.store] skipping result") == 1

    def test_save_is_atomic(self, fresh_store):
        task = SimTask(tiny_config(seed=43), "fft")
        run_simulation_task(task)
        leftovers = [
            p for p in fresh_store.results_dir.iterdir() if ".tmp" in p.name
        ]
        assert leftovers == []


class TestSnapshotHardening:
    def _snapshot_entry(self, store):
        task = SimTask(tiny_config(seed=51), "fft")
        run_simulation_task(task)
        (path,) = list(store.snapshots_dir.iterdir())
        return task, path

    def test_truncated_snapshot_is_skipped_and_warmup_reruns(
        self, fresh_store, capsys
    ):
        task, path = self._snapshot_entry(fresh_store)
        path.write_bytes(path.read_bytes()[:64])
        # New cell, same warmup fingerprint: only the measure budget differs.
        sibling = SimTask(
            dataclasses.replace(task.config, accesses_per_vcpu=301), task.app
        )
        stats = run_simulation_task(sibling)
        assert stats is not None
        assert fresh_store.counters()["snapshot_skipped"] == 1
        assert "[repro.store] skipping snapshot" in capsys.readouterr().err

    def test_stale_snapshot_version_is_skipped(self, fresh_store, capsys):
        task, path = self._snapshot_entry(fresh_store)
        payload = pickle.loads(path.read_bytes())
        payload["state_version"] = STATE_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        sibling = SimTask(
            dataclasses.replace(task.config, accesses_per_vcpu=301), task.app
        )
        run_simulation_task(sibling)
        assert fresh_store.counters()["snapshot_skipped"] == 1
        assert "state_version" in capsys.readouterr().err

    def test_malformed_state_falls_back_to_a_real_warmup(self, fresh_store, capsys):
        # A snapshot that passes every envelope check but whose state is
        # garbage must not poison the run: the restore fails, the system
        # is rebuilt, and the straight warm-up produces the same stats.
        task, path = self._snapshot_entry(fresh_store)
        straight = run_simulation_task(
            SimTask(dataclasses.replace(task.config, seed=52), task.app)
        )  # unrelated cell, just to keep the store honest
        assert straight is not None
        payload = pickle.loads(path.read_bytes())
        payload["state"]["caches"] = {"broken": True}
        path.write_bytes(pickle.dumps(payload))
        sibling = SimTask(
            dataclasses.replace(task.config, accesses_per_vcpu=301), task.app
        )
        with_fallback = run_simulation_task(sibling)
        err = capsys.readouterr().err
        assert "[repro.store] skipping snapshot" in err
        fresh_store_off = json.dumps(with_fallback.to_dict(), sort_keys=True)
        # Reference: same cell with the store disabled entirely.
        import os

        previous = os.environ["REPRO_STORE"]
        os.environ["REPRO_STORE"] = "off"
        try:
            reference = run_simulation_task(sibling)
        finally:
            os.environ["REPRO_STORE"] = previous
        assert fresh_store_off == json.dumps(reference.to_dict(), sort_keys=True)

    def test_snapshots_can_be_disabled_by_env(self, fresh_store, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOTS", "off")
        task = SimTask(tiny_config(seed=53), "fft")
        run_simulation_task(task)
        assert not fresh_store.snapshots_dir.exists()
        counters = fresh_store.counters()
        assert counters["snapshot_hits"] == counters["snapshot_misses"] == 0


class TestKeySemantics:
    def test_fast_mode_cells_have_distinct_keys(self):
        # REPRO_FAST shrinks access budgets through scaled(); both the
        # measure and warm-up budgets land in the config, so smoke and
        # full cells can never serve each other.
        full = SimTask(
            tiny_config(accesses_per_vcpu=12_000, warmup_accesses_per_vcpu=6_000),
            "fft",
        )
        fast = SimTask(
            tiny_config(accesses_per_vcpu=3_000, warmup_accesses_per_vcpu=1_500),
            "fft",
        )
        assert task_key(full) != task_key(fast)
        assert warmup_fingerprint(full)[0] != warmup_fingerprint(fast)[0]

    def test_warmup_inert_fields_share_a_fingerprint(self):
        base = SimTask(tiny_config(), "fft")
        key, payload = warmup_fingerprint(base)
        for variant in (
            dataclasses.replace(base.config, accesses_per_vcpu=999),
            dataclasses.replace(base.config, migration_period_ms=2.5),
            dataclasses.replace(base.config, metrics_sample_every=5_000),
            dataclasses.replace(base.config, sanitize=True),
        ):
            variant_key, _ = warmup_fingerprint(SimTask(variant, "fft"))
            assert variant_key == key, variant

    def test_warmup_relevant_fields_split_the_fingerprint(self):
        base = SimTask(tiny_config(), "fft")
        key, _ = warmup_fingerprint(base)
        from repro.core.filter import SnoopPolicy

        for variant_task in (
            SimTask(dataclasses.replace(base.config, seed=99), "fft"),
            SimTask(
                dataclasses.replace(
                    base.config, snoop_policy=SnoopPolicy.VSNOOP_COUNTER
                ),
                "fft",
            ),
            SimTask(
                dataclasses.replace(base.config, warmup_accesses_per_vcpu=151),
                "fft",
            ),
            SimTask(base.config, "lu"),  # the app is part of the identity
        ):
            assert warmup_fingerprint(variant_task)[0] != key, variant_task

    def test_inert_field_list_matches_the_config(self):
        field_names = {f.name for f in dataclasses.fields(SimConfig)}
        assert WARMUP_INERT_FIELDS <= field_names
        payload = warmup_fingerprint(SimTask(tiny_config(), "fft"))[1]
        assert set(payload) == field_names - WARMUP_INERT_FIELDS

    def test_sanitized_runs_produce_but_do_not_consume_snapshots(
        self, fresh_store
    ):
        task = SimTask(tiny_config(seed=61, sanitize=True), "fft")
        run_simulation_task(task)
        assert fresh_store.counters()["snapshot_misses"] == 0  # never asked
        assert any(fresh_store.snapshots_dir.iterdir())  # still produced
        # A non-sanitized sibling consumes what the sanitized run produced.
        sibling = SimTask(dataclasses.replace(task.config, sanitize=False), "fft")
        run_simulation_task(sibling)
        assert fresh_store.counters()["snapshot_hits"] == 1


def test_module_reexports_are_stable():
    # The store module is imported by runner.py at import time; keep the
    # public names the integration relies on pinned.
    for name in (
        "ResultStore",
        "STATE_VERSION",
        "get_store",
        "snapshots_enabled",
        "store_root",
    ):
        assert hasattr(store_mod, name), name
    assert isinstance(get_store(), (ResultStore, type(None)))
