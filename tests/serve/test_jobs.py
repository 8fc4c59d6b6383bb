"""Job model: wire validation and the derived identities."""

import inspect
import weakref

import pytest

from repro.apps import fdct, suite_case
from repro.core import case_key
from repro.serve import JobError, JobSpec, resolve_job
from repro.util import loc


class TestFromDict:
    def test_roundtrip(self):
        spec = JobSpec.from_dict({"case": "threshold",
                                  "size": {"n_pixels": 64},
                                  "seed": 3, "backend": "traced"})
        assert spec.case == "threshold"
        assert spec.size == {"n_pixels": 64}
        assert spec.seed == 3
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_defaults(self):
        spec = JobSpec.from_dict({"case": "fir"})
        assert spec.seed == 0
        assert spec.backend == "traced"
        assert spec.fsm_mode == "generated"

    @pytest.mark.parametrize("bad", [
        None, [], "threshold", 7,
        {},                                      # no case
        {"case": 7},                             # non-string case
        {"case": "threshold", "seed": "x"},      # non-int seed
        {"case": "threshold", "seed": True},     # bool is not a seed
        {"case": "threshold", "size": [1]},      # size not a mapping
        {"case": "threshold", "size": {"n": "big"}},
        {"case": "threshold", "backend": "verilator"},
        {"case": "threshold", "fsm_mode": "mealy"},
        {"case": "threshold", "extra": 1},       # unknown field
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(JobError):
            JobSpec.from_dict(bad)


class TestResolve:
    def test_unknown_case(self):
        with pytest.raises(JobError, match="unknown case"):
            resolve_job(JobSpec(case="nonesuch"))

    def test_bad_size_option(self):
        with pytest.raises(JobError, match="bad size options"):
            resolve_job(JobSpec(case="threshold", size={"bogus": 1}))

    @pytest.mark.parametrize("case, size", [
        ("threshold", {"n_pixels": 0}),  # builder rejects the value
        ("fdct1", {"pixels": 100}),      # not a multiple of 64
    ])
    def test_size_the_builder_rejects(self, case, size):
        with pytest.raises(JobError, match="bad size options"):
            resolve_job(JobSpec(case=case, size=size))

    def test_key_is_the_artifact_cache_digest(self):
        spec = JobSpec(case="threshold", size={"n_pixels": 64}, seed=5)
        resolved = resolve_job(spec)
        case = suite_case("threshold", n_pixels=64)
        assert resolved.key == case_key(case, seed=5,
                                        fsm_mode="generated",
                                        backend="traced")

    def test_key_distinguishes_every_field(self):
        base = JobSpec(case="threshold", size={"n_pixels": 64})
        variants = [
            JobSpec(case="popcount", size={"n_words": 16}),
            JobSpec(case="threshold", size={"n_pixels": 128}),
            JobSpec(case="threshold", size={"n_pixels": 64}, seed=1),
            JobSpec(case="threshold", size={"n_pixels": 64},
                    backend="event"),
            JobSpec(case="threshold", size={"n_pixels": 64},
                    fsm_mode="interpreted"),
        ]
        keys = {resolve_job(spec).key for spec in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_group_ignores_seed_but_not_structure(self):
        a = resolve_job(JobSpec(case="threshold", size={"n_pixels": 64},
                                seed=0))
        b = resolve_job(JobSpec(case="threshold", size={"n_pixels": 64},
                                seed=99))
        c = resolve_job(JobSpec(case="threshold", size={"n_pixels": 128},
                                seed=0))
        d = resolve_job(JobSpec(case="threshold", size={"n_pixels": 64},
                                seed=0, backend="event"))
        assert a.group == b.group
        assert a.key != b.key
        assert a.group != c.group
        assert a.group != d.group

    def test_shard_is_stable_and_in_range(self):
        resolved = resolve_job(JobSpec(case="matmul", size={"n": 4}))
        for n in (1, 2, 4, 7):
            shard = resolved.shard(n)
            assert 0 <= shard < n
            assert shard == resolved.shard(n)

    def test_batchable_on_any_backend(self):
        """A batched dispatch runs its jobs' own backend, so a job
        needs only a seeded stimulus factory to be batched."""
        for backend in ("event", "oblivious", "compiled", "traced"):
            assert resolve_job(JobSpec(case="fir",
                                       backend=backend)).batchable

    def test_source_is_read_once_per_function(self, monkeypatch):
        """Memo-hit submissions re-derive keys; neither that nor the
        compile re-reads (re-tokenizes) the algorithm's source."""
        monkeypatch.setattr(loc, "_SOURCES", weakref.WeakKeyDictionary())
        reads = []
        getsource = inspect.getsource

        def counting(obj):
            reads.append(obj)
            return getsource(obj)

        monkeypatch.setattr(inspect, "getsource", counting)
        for seed in range(20):
            resolved = resolve_job(JobSpec(case="fdct1", seed=seed))
        resolved.case.compile()
        assert reads == [fdct.fdct_kernel]
