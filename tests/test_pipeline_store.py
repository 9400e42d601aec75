"""Tests for repro.pipeline.store — on-disk persistence of the
evaluation cache."""

import pickle
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import explore_hardware
from repro.dse.space import DseOptions
from repro.errors import ReproError
from repro.estimator.calibration import get_calibration
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import (
    CacheStats,
    EvaluationCache,
    EvaluationStore,
    PipelineSession,
)
from repro.pipeline.store import MAGIC, STORE_VERSION


def _populate(cache, cfg, device, *, with_error=False):
    """Run a few real estimates (and optionally a memoized failure)."""
    net = zoo.tiny_cnn()
    for info in net.compute_layers():
        for dataflow in ("is", "ws"):
            try:
                cache.estimate(cfg, device, info, "spat", dataflow)
            except ReproError:
                pass
    if with_error:
        # fc6 of VGG16 needs GC > 1 on embedded buffers, which IS
        # rejects — a memoized failure entry.
        info = zoo.vgg16().find("fc6")
        with pytest.raises(ReproError):
            cache.estimate(cfg, device, info, "spat", "is")


def _entries(cache):
    """Copies of both memo levels of ``cache``."""
    return dict(cache._estimates), dict(cache._partitions)


def _compute(cache, estimates, partitions):
    """Insert entries as if computed here: present and dirty."""
    cache._estimates.update(estimates)
    cache._partitions.update(partitions)
    cache._dirty_estimates.update(estimates)
    cache._dirty_partitions.update(partitions)


def _write_segment(path, version, estimates, partitions):
    """Write one segment in a past layout: ``estimates`` and
    ``partitions`` pickled as given, wrapped in the current envelope."""
    payload = pickle.dumps(
        {"version": version, "estimates": estimates,
         "partitions": partitions},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    path.write_bytes(
        MAGIC + zlib.crc32(payload).to_bytes(4, "little") + payload
    )


class TestStoreRoundTrip:
    def test_estimates_and_partitions_round_trip(
        self, tmp_path, cfg_pt4, pynq
    ):
        cache = EvaluationCache()
        _populate(cache, cfg_pt4, pynq)
        store = EvaluationStore(tmp_path / "cache")
        written = store.flush(cache)
        assert written > 0

        estimates, partitions = _entries(cache)
        loaded_est, loaded_part = EvaluationStore(tmp_path / "cache").load()
        assert loaded_est == estimates
        assert loaded_part == partitions

    def test_warm_cache_serves_hits_without_recompute(
        self, tmp_path, cfg_pt4, pynq
    ):
        first = EvaluationCache()
        _populate(first, cfg_pt4, pynq)
        store = EvaluationStore(tmp_path)
        store.flush(first)

        second = EvaluationCache()
        EvaluationStore(tmp_path).warm(second)
        _populate(second, cfg_pt4, pynq)
        stats = second.stats
        assert stats.misses == 0
        assert stats.hits == stats.lookups > 0

    def test_memoized_failures_round_trip(self, tmp_path, cfg_pynq_paper,
                                          pynq):
        first = EvaluationCache()
        _populate(first, cfg_pynq_paper, pynq, with_error=True)
        store = EvaluationStore(tmp_path)
        store.flush(first)

        second = EvaluationCache()
        EvaluationStore(tmp_path).warm(second)
        info = zoo.vgg16().find("fc6")
        with pytest.raises(ReproError) as excinfo:
            second.estimate(cfg_pynq_paper, pynq, info, "spat", "is")
        assert "fc6" in str(excinfo.value)
        assert second.stats.misses == 0  # served from the persisted entry

    def test_flush_is_delta_only_and_idempotent(self, tmp_path, cfg_pt4,
                                                pynq):
        cache = EvaluationCache()
        _populate(cache, cfg_pt4, pynq)
        store = EvaluationStore(tmp_path)
        assert store.flush(cache) > 0
        # Nothing new computed: the second flush writes nothing.
        assert store.flush(cache) == 0
        assert len(store.segments()) == 1

    def test_warmed_entries_are_not_reflushed(self, tmp_path, cfg_pt4,
                                              pynq):
        first = EvaluationCache()
        _populate(first, cfg_pt4, pynq)
        EvaluationStore(tmp_path).flush(first)

        second = EvaluationCache()
        store = EvaluationStore(tmp_path)
        store.warm(second)
        assert store.flush(second) == 0  # all warm, no dirty delta

    def test_concurrent_writers_use_distinct_segments(self, tmp_path,
                                                      cfg_pt4, cfg_pt6,
                                                      pynq):
        store = EvaluationStore(tmp_path)
        a, b = EvaluationCache(), EvaluationCache()
        _populate(a, cfg_pt4, pynq)
        _populate(b, cfg_pt6, pynq)
        store.flush(a)
        store.flush(b)
        assert len(store.segments()) == 2
        estimates, _ = EvaluationStore(tmp_path).load()
        merged = dict(_entries(a)[0])
        merged.update(_entries(b)[0])
        assert estimates == merged

    def test_compact_merges_segments(self, tmp_path, cfg_pt4, cfg_pt6,
                                     pynq):
        store = EvaluationStore(tmp_path)
        for cfg in (cfg_pt4, cfg_pt6):
            cache = EvaluationCache()
            _populate(cache, cfg, pynq)
            store.flush(cache)
        before, _ = EvaluationStore(tmp_path).load()
        assert store.compact() == 2
        assert len(store.segments()) == 1
        after, _ = EvaluationStore(tmp_path).load()
        assert after == before


class TestStoreRobustness:
    def _flushed_store(self, tmp_path, cfg, device):
        cache = EvaluationCache()
        _populate(cache, cfg, device)
        store = EvaluationStore(tmp_path)
        store.flush(cache)
        return store

    def test_version_mismatch_rejected(self, tmp_path, cfg_pt4, pynq):
        cache = EvaluationCache()
        _populate(cache, cfg_pt4, pynq)
        EvaluationStore(tmp_path, version=STORE_VERSION + 1).flush(cache)
        reader = EvaluationStore(tmp_path)
        estimates, partitions = reader.load()
        assert estimates == {} and partitions == {}
        assert reader.stats.segments_skipped == 1

    def test_v1_layout_segment_skipped(self, tmp_path, cfg_pt4, pynq):
        cache = EvaluationCache()
        _populate(cache, cfg_pt4, pynq)
        # The exact pre-scope layout: one pickled dict of flat entries.
        _write_segment(tmp_path / "v1.seg", 1, *_entries(cache))
        for version in (STORE_VERSION, 1):
            reader = EvaluationStore(tmp_path, version=version)
            warmed = EvaluationCache()
            assert reader.warm(warmed, device=pynq.name) == 0
            assert len(warmed) == 0
            assert _entries(warmed) == ({}, {})
            assert reader.stats.segments_skipped == 1
            assert reader.stats.segments_loaded == 0
            (summary,) = reader.segment_summaries()
            assert not summary.readable and summary.entries == 0

    def test_v2_segment_skipped(self, tmp_path, cfg_pt4, pynq):
        """Version 2 keyed estimates on the calibration profile too:
        its segments are skipped and counted like v1's, never read."""
        cache = EvaluationCache()
        _populate(cache, cfg_pt4, pynq)
        estimates, partitions = _entries(cache)
        cal = get_calibration(pynq.name)
        v2_estimates = {key + (cal,): entry for key, entry in estimates.items()}
        _write_segment(
            tmp_path / "v2.seg", 2,
            {pynq.name: (len(v2_estimates), pickle.dumps(v2_estimates))},
            pickle.dumps(partitions),
        )
        assert EvaluationStore(tmp_path, version=2).load()[0] == v2_estimates
        reader = EvaluationStore(tmp_path)
        warmed = EvaluationCache()
        assert reader.warm(warmed, device=pynq.name) == 0
        assert _entries(warmed) == ({}, {})
        assert reader.stats.segments_skipped == 1
        assert reader.stats.segments_loaded == 0
        (summary,) = reader.segment_summaries()
        assert not summary.readable and summary.entries == 0

    def test_truncated_segment_skipped(self, tmp_path, cfg_pt4, pynq):
        store = self._flushed_store(tmp_path, cfg_pt4, pynq)
        segment = store.segments()[0]
        blob = segment.read_bytes()
        segment.write_bytes(blob[: len(blob) // 2])
        reader = EvaluationStore(tmp_path)
        estimates, _ = reader.load()
        assert estimates == {}
        assert reader.stats.segments_skipped == 1

    def test_flipped_byte_fails_checksum(self, tmp_path, cfg_pt4, pynq):
        store = self._flushed_store(tmp_path, cfg_pt4, pynq)
        segment = store.segments()[0]
        blob = bytearray(segment.read_bytes())
        blob[-1] ^= 0xFF
        segment.write_bytes(bytes(blob))
        reader = EvaluationStore(tmp_path)
        assert reader.load() == ({}, {})
        assert reader.stats.segments_skipped == 1

    def test_foreign_file_skipped_good_segment_survives(
        self, tmp_path, cfg_pt4, pynq
    ):
        store = self._flushed_store(tmp_path, cfg_pt4, pynq)
        (tmp_path / "zz-garbage.seg").write_bytes(b"not a segment")
        # Well-formed envelope around a non-store payload is skipped too.
        payload = pickle.dumps(["not", "a", "store", "dict"])
        (tmp_path / "zz-list.seg").write_bytes(
            MAGIC + zlib.crc32(payload).to_bytes(4, "little") + payload
        )
        reader = EvaluationStore(tmp_path)
        estimates, _ = reader.load()
        assert len(estimates) > 0
        assert reader.stats.segments_loaded == 1
        assert reader.stats.segments_skipped == 2

    def test_failed_flush_keeps_delta_dirty(self, tmp_path, cfg_pt4,
                                            pynq, monkeypatch):
        cache = EvaluationCache()
        _populate(cache, cfg_pt4, pynq)
        store = EvaluationStore(tmp_path)

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(type(store), "flush_entries", explode)
        with pytest.raises(OSError):
            store.flush(cache)
        monkeypatch.undo()
        # The delta survived the failure and persists on retry.
        assert store.flush(cache) > 0
        loaded_est, _ = EvaluationStore(tmp_path).load()
        assert loaded_est == _entries(cache)[0]

    def test_no_tmp_files_left_behind(self, tmp_path, cfg_pt4, pynq):
        self._flushed_store(tmp_path, cfg_pt4, pynq)
        assert [p.name for p in tmp_path.iterdir() if ".tmp" in p.name] == []

    def test_path_collides_with_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("hello")
        with pytest.raises(ReproError):
            EvaluationStore(target)

    def test_empty_store_loads_empty(self, tmp_path):
        store = EvaluationStore(tmp_path / "never-created")
        assert store.load() == ({}, {})
        assert store.stats.segments_loaded == 0


# -- device-scoped warm -----------------------------------------------------

SCOPE_DEVICES = ("vu9p", "pynq-z1", "zcu102")

# Synthetic entries shaped like the cache's: the device name is key[2]
# and an error-valued entry has a non-None entry[1].  Values carry the
# writing segment's index so the winner of a duplicated key is visible
# (real duplicates are byte-equivalent).
_estimate_keys = st.tuples(
    st.integers(0, 4), st.integers(0, 2), st.sampled_from(SCOPE_DEVICES)
).map(lambda t: (("Conv2d", t[0]), t[1], t[2], "ddr", "spat", "is", None))
_segment = st.tuples(
    st.dictionaries(_estimate_keys, st.booleans(), max_size=10),
    st.dictionaries(st.integers(0, 6), st.just(None), max_size=4),
)


def _segment_entries(index, flags, part_keys):
    estimates = {
        key: (None, f"err{index}", f"l{index}") if failed
        else (f"est{index}", None, f"l{index}")
        for key, failed in flags.items()
    }
    partitions = {key: (f"part{index}", None, "l") for key in part_keys}
    return estimates, partitions


def _reference_load(segments, device):
    """Per-key reference merge: first writer wins in segment order."""
    estimates, partitions = {}, {}
    for seg_estimates, seg_partitions in segments:
        for key, entry in seg_estimates.items():
            if device is None or key[2] == device:
                estimates.setdefault(key, entry)
        for key, entry in seg_partitions.items():
            partitions.setdefault(key, entry)
    return estimates, partitions


def _reference_warm(present, estimates, partitions):
    """Per-key reference of ``EvaluationCache.warm`` on a cache that
    already holds ``present`` (estimates, partitions)."""
    cache_est, cache_part = dict(present[0]), dict(present[1])
    added = 0
    for key, entry in estimates.items():
        if key not in cache_est:
            cache_est[key] = entry
            added += 1
    for key, entry in partitions.items():
        if key not in cache_part:
            cache_part[key] = entry
            added += 1
    return cache_est, cache_part, added


class _CountedHash:
    """A signature stand-in that counts how often it is hashed."""

    calls = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        type(self).calls += 1
        return hash(self.value)

    def __eq__(self, other):
        return self.value == other.value


class TestScopedWarm:
    def test_warm_hashes_each_key_once(self, tmp_path):
        # One hash per key, by the unpickle that builds the scope's
        # dict; the segment merge and the cache merge reuse it.
        entries = {
            (_CountedHash(index), index % 3, device, "ddr", "spat", "is",
             None): (f"est{index}", None, "l")
            for index in range(40)
            for device in ("vu9p", "pynq-z1")
        }
        EvaluationStore(tmp_path).flush_entries(entries, {})
        _CountedHash.calls = 0
        cache = EvaluationCache()
        assert EvaluationStore(tmp_path).warm(cache, device="vu9p") == 40
        assert _CountedHash.calls == 40

    @settings(max_examples=40, deadline=None)
    @given(
        segments=st.lists(_segment, min_size=1, max_size=5),
        present=_segment,
        device=st.sampled_from(SCOPE_DEVICES + ("ku115", None)),
    )
    def test_scoped_warm_matches_per_key_merge(
        self, segments, present, device
    ):
        written = [
            _segment_entries(index, *segment)
            for index, segment in enumerate(segments)
        ]
        present = _segment_entries(99, *present)
        with tempfile.TemporaryDirectory() as path:
            writer = EvaluationStore(path)
            for estimates, partitions in written:
                writer.flush_entries(estimates, partitions)

            expected = _reference_load(written, device)
            if device is None:
                assert EvaluationStore(path).load() == expected
            reader = EvaluationStore(path)
            cache = EvaluationCache()
            _compute(cache, *present)  # present *dirty* entries
            added = reader.warm(cache, device=device)

        expected_est, expected_part, expected_added = _reference_warm(
            present, *expected
        )
        assert _entries(cache) == (expected_est, expected_part)
        assert added == expected_added
        stats = cache.stats
        assert stats.error_entries == sum(
            1 for entry in expected_est.values() if entry[1] is not None
        )
        assert (stats.hits, stats.misses, stats.partition_hits,
                stats.partition_misses) == (0, 0, 0, 0)
        # Warmed entries are not dirty; present dirty ones stay dirty.
        assert cache.take_dirty() == present
        loaded = reader.stats
        # An empty delta writes no segment.
        assert loaded.segments_loaded == sum(
            1 for estimates, partitions in written if estimates or partitions
        )
        assert loaded.segments_skipped == 0
        assert loaded.estimates_loaded == len(expected[0])
        assert loaded.partitions_loaded == len(expected[1])

    def test_session_decodes_only_its_device(self, tmp_path):
        # Estimates come from single-design sessions: a pinned cfg maps
        # its network through the scalar model, one scope per device.
        network = zoo.tiny_cnn(input_size=32)
        pinned = {
            device: explore_hardware(get_device(device))[0].cfg
            for device in ("pynq-z1", "zcu102")
        }
        for device, cfg in pinned.items():
            with PipelineSession(network, device, store=tmp_path):
                pass
            with PipelineSession(network, device, cfg=cfg,
                                 store=tmp_path) as s:
                s.estimate()
        estimates, partitions = EvaluationStore(tmp_path).load()
        mine = sum(1 for key in estimates if key[2] == "pynq-z1")
        assert 0 < mine < len(estimates)

        session = PipelineSession(
            network, "pynq-z1", cfg=pinned["pynq-z1"], store=tmp_path
        )
        assert session.store.stats.estimates_loaded == mine
        assert session.store.stats.partitions_loaded == len(partitions)
        assert len(session.cache) == mine
        session.estimate()
        assert session.cache_stats.misses == 0
        assert session.close() == 0

    def test_compact_keeps_every_scope(self, tmp_path, cfg_pt4, pynq, vu9p):
        store = EvaluationStore(tmp_path)
        for device in (pynq, vu9p):
            cache = EvaluationCache()
            _populate(cache, cfg_pt4, device)
            store.flush(cache)
        before = EvaluationStore(tmp_path).load()
        assert store.compact() == 2
        (summary,) = store.segment_summaries()
        assert set(summary.scopes) == {"pynq-z1", "vu9p"}
        assert summary.estimates == len(before[0])
        assert summary.partitions == len(before[1])
        assert EvaluationStore(tmp_path).load() == before


# -- session integration ----------------------------------------------------


class TestSessionStore:
    def test_session_close_flushes_and_warms_next(self, tmp_path, pynq):
        # A DSE looks nothing up, so its session flushes nothing; the
        # estimates of a session pinned to its design persist, and the
        # next such session is served from them alone.
        network = zoo.tiny_cnn(input_size=32)
        with PipelineSession(network, pynq, store=tmp_path) as session:
            cold = session.dse()
        assert session.cache_stats == CacheStats()
        assert session.close() == 0
        assert list(tmp_path.iterdir()) == []

        with PipelineSession(network, pynq, cfg=cold.cfg,
                             store=tmp_path) as pinned:
            estimate = pinned.estimate()
        assert pinned.store.stats.estimates_flushed > 0
        assert pinned.store.stats.partitions_flushed > 0

        warm_session = PipelineSession(network, pynq, cfg=cold.cfg,
                                       store=tmp_path)
        assert warm_session.estimate() == estimate == cold.estimate
        stats = warm_session.cache_stats
        assert stats.misses == stats.partition_misses == 0
        assert stats.hit_rate == 1.0
        assert warm_session.close() == 0  # nothing new to persist

    def test_sweep_computes_no_entry_twice(self, tmp_path, vu9p):
        # A two-objective DSE sweep over one shared cache adds nothing
        # to it; the pinned sessions of its selections do, and every
        # miss computes a new entry, so the misses equal what the
        # flush persists.
        cache = EvaluationCache()
        cfgs = [
            PipelineSession(zoo.alexnet(), vu9p,
                            DseOptions(objective=objective),
                            cache=cache).cfg
            for objective in ("throughput", "latency")
        ]
        assert cache.stats == CacheStats()
        assert EvaluationStore(tmp_path).flush(cache) == 0
        for cfg in cfgs:
            PipelineSession(zoo.alexnet(), vu9p, cfg=cfg,
                            cache=cache).estimate()
        stats = cache.stats
        misses = stats.misses + stats.partition_misses
        assert misses > 0
        assert EvaluationStore(tmp_path).flush(cache) == misses

    def test_session_creates_the_store_dir(self, tmp_path, pynq):
        # Opening a store creates its directory, even for a DSE that
        # will flush nothing into it.
        path = tmp_path / "new" / "cache"
        with PipelineSession(zoo.tiny_cnn(input_size=32), pynq,
                             store=path) as session:
            session.dse()
        assert path.is_dir() and list(path.iterdir()) == []

    def test_store_dir_under_a_file_fails_before_the_dse(
        self, tmp_path, pynq, monkeypatch
    ):
        from repro.pipeline import session as session_module

        blocker = tmp_path / "file"
        blocker.write_text("not a directory")

        def no_dse(*args, **kwargs):
            raise AssertionError("the DSE ran before the store failed")

        monkeypatch.setattr(session_module, "run_dse", no_dse)
        with pytest.raises(ReproError, match=str(blocker / "cache")):
            PipelineSession(zoo.tiny_cnn(input_size=32), pynq,
                            store=blocker / "cache")
        assert blocker.read_text() == "not a directory"

    def test_store_accepts_instance(self, tmp_path, pynq):
        store = EvaluationStore(tmp_path)
        session = PipelineSession(zoo.tiny_cnn(input_size=32), pynq,
                                  store=store)
        assert session.store is store

    def test_sessionless_close_is_noop(self, pynq):
        session = PipelineSession(zoo.tiny_cnn(input_size=32), pynq)
        assert session.close() == 0


# -- CLI --------------------------------------------------------------------


class TestCliCacheDir:
    def test_dse_cache_dir_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        argv = ["dse", "--model", "tiny_cnn", "--device", "pynq-z1",
                "--cache-dir", str(cache_dir), "-v"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # The DSE makes no lookups: no cache line, nothing flushed, but
        # the store directory exists.
        assert "\ncache:" not in first
        assert (f"store {cache_dir}: 0 estimates + 0 partitions from 0 "
                "segment(s) (0 skipped), 0 estimates + 0 partitions "
                "flushed in 0 segment(s)") in first
        assert cache_dir.is_dir()

        # Estimates come from a session pinned to the selected design;
        # the next DSE warms them from disk and flushes nothing new.
        cfg = PipelineSession("tiny_cnn", "pynq-z1").dse().cfg
        with PipelineSession("tiny_cnn", "pynq-z1", cfg=cfg,
                             store=cache_dir) as pinned:
            pinned.estimate()
        stored = pinned.store.stats
        assert stored.estimates_flushed > 0
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert (f"store {cache_dir}: {stored.estimates_flushed} estimates + "
                f"{stored.partitions_flushed} partitions from 1 segment(s) "
                "(0 skipped), 0 estimates + 0 partitions flushed in 0 "
                "segment(s)") in second
        assert first.split("\nstore")[0] == second.split("\nstore")[0]
