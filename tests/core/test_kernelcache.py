"""The persistent codegen cache: keys, layers, corruption, digests."""

import copy
import json
import pickle
from dataclasses import replace

import pytest

from repro.apps import suite_case
from repro.core.kernelcache import (MEMO_ENTRIES, KernelCache,
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


class TestBoundedMemory:
    """The memory layer keeps the MEMO_ENTRIES most recently used
    entries, so a long-lived fuzz or serve worker stops growing."""

    def _fill(self, cache, count, start=0):
        for index in range(start, start + count):
            cache.put("kernel", f"k{index}", _payload(), _code())

    def test_least_recently_used_entries_leave(self):
        cache = KernelCache(None)
        self._fill(cache, MEMO_ENTRIES)
        assert cache.get("kernel", "k0")[0] is not None  # now the newest
        self._fill(cache, 10, start=MEMO_ENTRIES)
        assert len(cache._memory) == MEMO_ENTRIES
        for index in (0, 11, MEMO_ENTRIES + 9):
            assert cache.get("kernel", f"k{index}")[0] is not None
        assert cache.get("kernel", "k1") == (None, None)
        assert cache.get("kernel", "k10") == (None, None)
        assert len(cache._memory) == MEMO_ENTRIES

    def test_an_evicted_entry_comes_back_from_disk(self, cache):
        self._fill(cache, MEMO_ENTRIES + 1)
        assert len(cache._memory) == MEMO_ENTRIES
        payload, code = cache.get("kernel", "k0")
        assert payload["source"] == "x = 1" and code is not None
        assert (cache.disk_hits, cache.misses) == (1, 0)
        assert len(cache._memory) == MEMO_ENTRIES


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

    def test_deep_copy_of_a_datapath_drops_the_memo(self):
        """A deep copy is made to be edited, often directly (as a test
        that cuts an output memory does): with the source's memo it
        would bind the kernel cached for the source's depth."""
        datapath = suite_case("fdct1", pixels=64).compile() \
            .configurations[0].datapath
        digest = datapath_digest(datapath)
        clone = copy.deepcopy(datapath)
        name, decl = next(iter(clone.memories.items()))
        clone.memories[name] = replace(decl, depth=decl.depth - 1)
        assert datapath_digest(clone) != digest
        assert datapath_digest(datapath) == digest
        # a pickle keeps it: the design stage's warm path relies on that
        assert pickle.loads(pickle.dumps(datapath))._digest_memo == digest

    def test_deep_copy_of_an_fsm_drops_the_memo(self):
        fsm = suite_case("fdct1", pixels=64).compile() \
            .configurations[0].fsm
        digest = fsm_digest(fsm)
        clone = copy.deepcopy(fsm)
        state = next(state for state in clone.states.values()
                     if state.transitions)
        assert state._owner is clone
        state.transitions[0].target = state.name
        assert fsm_digest(clone) != digest
        assert fsm_digest(fsm) == digest
        assert pickle.loads(pickle.dumps(fsm))._digest_memo == digest
