"""The persistent codegen cache: keys, layers, corruption, digests."""

import json

import pytest

from repro.core.kernelcache import (KernelCache, batch_group_key,
                                    datapath_digest, default_cache,
                                    digest_parts, fsm_digest,
                                    set_default_cache)
from repro.hdl import Datapath, Fsm, Var


@pytest.fixture()
def cache(tmp_path):
    return KernelCache(tmp_path / "kernels")


def _payload():
    return {"source": "x = 1", "names": ["a", "b"]}


def _code():
    return compile("result = 40 + 2", "<cache-test>", "exec")


class TestCacheLayers:
    def test_miss_then_hit(self, cache):
        assert cache.get("kernel", "k1") == (None, None)
        assert cache.misses == 1
        cache.put("kernel", "k1", _payload(), _code())
        payload, code = cache.get("kernel", "k1")
        assert payload["source"] == "x = 1"
        scope = {}
        exec(code, scope)
        assert scope["result"] == 42
        assert cache.memory_hits == 1

    def test_disk_round_trip_across_instances(self, cache):
        cache.put("kernel", "k1", _payload(), _code())
        fresh = KernelCache(cache.root)  # same disk, empty memory
        payload, code = fresh.get("kernel", "k1")
        assert payload is not None and code is not None
        assert fresh.disk_hits == 1 and fresh.memory_hits == 0
        # second get comes from the promoted memory entry
        fresh.get("kernel", "k1")
        assert fresh.memory_hits == 1

    def test_memory_only_mode(self):
        cache = KernelCache(None)
        cache.put("kernel", "k1", _payload(), _code())
        assert cache.get("kernel", "k1")[0] is not None
        fresh = KernelCache(None)
        assert fresh.get("kernel", "k1") == (None, None)

    def test_corrupt_file_is_a_miss(self, cache):
        cache.put("kernel", "k1", _payload(), _code())
        path = cache.root / "kernel" / "k1.json"
        path.write_text("{not json")
        fresh = KernelCache(cache.root)
        assert fresh.get("kernel", "k1") == (None, None)
        assert fresh.errors == 1 and fresh.misses == 1

    def test_version_or_magic_skew_is_a_miss(self, cache):
        cache.put("kernel", "k1", _payload(), _code())
        path = cache.root / "kernel" / "k1.json"
        entry = json.loads(path.read_text())
        entry["magic"] = "bm90IHRoaXMgcHl0aG9u"
        path.write_text(json.dumps(entry))
        fresh = KernelCache(cache.root)
        assert fresh.get("kernel", "k1") == (None, None)

    def test_clear_empties_both_layers(self, cache):
        cache.put("kernel", "k1", _payload(), _code())
        cache.clear()
        assert cache.get("kernel", "k1") == (None, None)
        assert not list(cache.root.glob("*/*.json"))

    def test_set_default_cache_swaps_and_restores(self, cache):
        previous = set_default_cache(cache)
        try:
            assert default_cache() is cache
        finally:
            set_default_cache(previous)
        assert default_cache() is not cache


class TestObjects:
    """Pickled objects (the compile stage): fresh on every hit, and any
    damage a miss."""

    VALUE = {"words": [1, 2, 3], "name": "design"}

    def test_round_trip_returns_fresh_objects(self, cache):
        assert cache.get_object("design", "d1") is None
        cache.put_object("design", "d1", self.VALUE)
        first = cache.get_object("design", "d1")
        first["words"].append(4)
        assert cache.get_object("design", "d1") == self.VALUE
        fresh = KernelCache(cache.root)
        assert fresh.get_object("design", "d1") == self.VALUE
        assert fresh.disk_hits == 1 and fresh.misses == 0

    def _damaged(self, cache, damage):
        cache.put_object("design", "d1", self.VALUE)
        path = cache.root / "design" / "d1.json"
        damage(path)
        fresh = KernelCache(cache.root)
        assert fresh.get_object("design", "d1") is None
        assert (fresh.disk_hits, fresh.memory_hits, fresh.misses) \
            == (0, 0, 1)
        return fresh

    def test_truncated_entry_is_a_miss(self, cache):
        self._damaged(cache, lambda path: path.write_bytes(
            path.read_bytes()[:40]))

    def test_unpicklable_entry_is_a_miss(self, cache):
        def damage(path):
            entry = json.loads(path.read_text())
            entry["pickle"] = "bm90IGEgcGlja2xl"
            path.write_text(json.dumps(entry))

        fresh = self._damaged(cache, damage)
        assert fresh.errors == 1
        # the bad entry left the memory layer: the next lookup misses too
        assert fresh.get_object("design", "d1") is None

    def test_foreign_entry_is_a_miss(self, cache):
        cache.put_object("design", "other", {"not": "this one"})
        self._damaged(cache, lambda path: path.write_bytes(
            (cache.root / "design" / "other.json").read_bytes()))


class TestDigests:
    def test_digest_parts_is_order_sensitive(self):
        assert digest_parts("a", "b") != digest_parts("b", "a")
        assert digest_parts("ab") != digest_parts("a", "b")

    def _datapath(self):
        dp = Datapath("d", width=16)
        dp.add_component("add0", "add", 16)
        dp.add_net("n0", "add0.o", ["r0.d"])
        return dp

    def _fsm(self):
        fsm = Fsm("f")
        fsm.add_input("st")
        fsm.add_output("en_r0")
        s0 = fsm.add_state("s0")
        s0.assign("en_r0", 1)
        s0.transition("s1")
        fsm.add_state("s1", final=True)
        return fsm

    def test_datapath_digest_stable_and_memoised(self):
        dp = self._datapath()
        first = datapath_digest(dp)
        assert datapath_digest(dp) == first
        assert dp._digest_memo == first
        assert datapath_digest(self._datapath()) == first

    def test_datapath_mutators_invalidate_memo(self):
        dp = self._datapath()
        before = datapath_digest(dp)
        dp.add_component("mul0", "mul", 16)
        assert dp._digest_memo is None
        after = datapath_digest(dp)
        assert after != before
        dp.add_status("flag", "mul0.o")
        assert datapath_digest(dp) != after

    def test_fsm_digest_stable_and_memoised(self):
        fsm = self._fsm()
        first = fsm_digest(fsm)
        assert fsm_digest(fsm) == first
        assert fsm._digest_memo == first
        assert fsm_digest(self._fsm()) == first

    def test_fsm_mutators_invalidate_memo(self):
        fsm = self._fsm()
        before = fsm_digest(fsm)
        fsm.add_output("en_r1")
        assert fsm._digest_memo is None
        assert fsm_digest(fsm) != before

    def test_state_helpers_invalidate_owner_memo(self):
        """assign/transition on an owned State must reach back and
        clear the Fsm memo — a stale digest here would serve the wrong
        cached kernel for a genuinely different machine."""
        fsm = self._fsm()
        before = fsm_digest(fsm)
        fsm.states["s0"].assign("en_r0", 0)
        assert fsm._digest_memo is None
        changed = fsm_digest(fsm)
        assert changed != before
        fsm.states["s0"].transition("s0", Var("st"))
        assert fsm._digest_memo is None
        assert fsm_digest(fsm) != changed

    def test_mark_final_invalidates_memo(self):
        fsm = self._fsm()
        before = fsm_digest(fsm)
        fsm.mark_final("s0")
        assert fsm_digest(fsm) != before


class TestBatchGroupKey:
    """batch_group_key decides which stimulus sets may share one
    lockstep kernel — a stale or insensitive key would batch lanes
    onto the wrong generated code."""

    def _model(self):
        dp = Datapath("d", width=16)
        dp.add_component("add0", "add", 16)
        dp.add_net("n0", "add0.o", ["r0.d"])
        fsm = Fsm("f")
        fsm.add_input("st")
        fsm.add_output("en_r0")
        s0 = fsm.add_state("s0")
        s0.assign("en_r0", 1)
        s0.transition("s1")
        fsm.add_state("s1", final=True)
        return dp, fsm

    def test_stable_across_equal_models(self):
        dp1, fsm1 = self._model()
        dp2, fsm2 = self._model()
        assert batch_group_key(dp1, fsm1) == batch_group_key(dp2, fsm2)
        assert batch_group_key(dp1, fsm1) == batch_group_key(dp1, fsm1)

    def test_sensitive_to_fsm_mode(self):
        dp, fsm = self._model()
        assert batch_group_key(dp, fsm, "generated") != \
            batch_group_key(dp, fsm, "interpreted")

    def test_datapath_mutation_changes_key(self):
        """Mutators clear the digest memo, so a model edited after a
        key was computed can never silently reuse the old group."""
        dp, fsm = self._model()
        before = batch_group_key(dp, fsm)
        dp.add_component("mul0", "mul", 16)
        assert batch_group_key(dp, fsm) != before

    def test_fsm_mutation_changes_key(self):
        dp, fsm = self._model()
        before = batch_group_key(dp, fsm)
        fsm.states["s0"].assign("en_r0", 0)
        assert batch_group_key(dp, fsm) != before
        after = batch_group_key(dp, fsm)
        fsm.states["s0"].transition("s0", Var("st"))
        assert batch_group_key(dp, fsm) != after

    def test_distinct_from_kernel_digests(self):
        """The group key is its own namespace: it must not collide
        with the raw datapath/fsm digests a kernel cache key uses."""
        dp, fsm = self._model()
        key = batch_group_key(dp, fsm)
        assert key != datapath_digest(dp)
        assert key != fsm_digest(fsm)
