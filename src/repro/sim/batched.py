"""Batched stimulus execution: N stimulus sets, one elaboration.

Campaign-scale workloads (the suite at many seeds, the verification
daemon's gathered dispatches) verify the *same* design over many
stimulus sets.  Elaborating the hardware and binding its kernel cost
more than a short run, so a :class:`LaneBatch` pays for them once: it
runs each stimulus set — a *lane* — in turn on one live elaboration,
rewound to its post-elaboration snapshot before every lane (the rewind
a fault campaign's testbench uses, see
:meth:`repro.translate.to_sim.SimDesign.snapshot`).  Lanes run on
whatever backend elaborated the design, so a lane's cycles and memory
words are those of a fresh run on that backend.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from .errors import SimulationTimeout

__all__ = ["BatchReport", "LaneBatch"]


class BatchReport:
    """Per-lane results of one :meth:`LaneBatch.run`."""

    __slots__ = ("batch_size", "cycles", "stats", "final_states", "done",
                 "timed_out", "samples")

    def __init__(self, batch_size: int) -> None:
        self.batch_size = batch_size
        self.cycles: List[int] = [0] * batch_size
        #: the kernel's statistics after each lane, plus
        #: ``fsm_transitions``, as a single run reports them
        self.stats: List[Dict[str, int]] = [{} for _ in range(batch_size)]
        self.final_states: List[Optional[str]] = [None] * batch_size
        self.done: List[bool] = [False] * batch_size
        self.timed_out: List[bool] = [False] * batch_size
        #: per-lane ``{name: value}`` of the design's FSM outputs, read
        #: the moment the lane finished (what the RTG guards evaluate)
        self.samples: List[Dict[str, int]] = [{} for _ in range(batch_size)]

    @property
    def all_done(self) -> bool:
        return all(self.done)


class LaneBatch:
    """Run N stimulus sets in turn through one elaborated design.

    *design* is a :class:`~repro.translate.to_sim.SimDesign` fresh from
    elaboration; its bound memory images are scratch space, so pass
    fresh images, not a lane's own.  *lane_memories* holds one
    ``{name: MemoryImage}`` mapping per lane; every image the design
    binds is loaded from the lane's image of that name before the lane
    runs and copied back after, so the lane mappings keep ownership of
    their words.  A lane mapping that lacks a bound memory, binds the
    scratch image itself or has the wrong shape raises
    :class:`ValueError`.

    The name is the lockstep engine's, which this class replaced: the
    end-to-end benchmark's per-layer spans wrap :meth:`run` under it.
    """

    def __init__(self, design,
                 lane_memories: Sequence[Mapping[str, object]]) -> None:
        self.design = design
        self._lane_words: List[List[tuple]] = []
        for lane_map in lane_memories:
            pairs = []
            for name, bound in design.memories.items():
                image = lane_map.get(name)
                if image is None:
                    raise ValueError(f"lane is missing memory {name!r}")
                if image is bound:
                    raise ValueError(
                        f"lane memory {name!r} aliases the bound scratch "
                        f"image; batch lanes need their own storage")
                if (image.width, image.depth) != (bound.width, bound.depth):
                    raise ValueError(
                        f"lane memory {name!r} is "
                        f"{image.width}x{image.depth}, design binds "
                        f"{bound.width}x{bound.depth}")
                pairs.append((bound._words, image._words))
            self._lane_words.append(pairs)
        self.batch_size = len(self._lane_words)

    def run(self, max_cycles: int = 1_000_000) -> BatchReport:
        """Run every lane to ``done`` or its cycle budget, one after
        another on the rewound design.

        Lanes that exhaust *max_cycles* are recorded as ``timed_out``
        rather than raising, so one stuck stimulus cannot poison its
        batch — the caller chooses the failure semantics.  The lanes
        run through the kernel call of ``run_to_done``, so this method
        is the one call that simulates the batch.
        """
        report = BatchReport(self.batch_size)
        design = self.design
        controller = design.controller
        start = design.snapshot()
        for lane, pairs in enumerate(self._lane_words):
            design.restore(start)
            for bound_words, lane_words in pairs:
                bound_words[:] = lane_words
            design.resettle()
            try:
                report.cycles[lane] = design._run_until_done(max_cycles)
                report.done[lane] = True
            except SimulationTimeout:
                report.cycles[lane] = max_cycles
                report.timed_out[lane] = True
            stats = design.sim.stats.as_dict()
            stats["fsm_transitions"] = controller.transitions
            report.stats[lane] = stats
            report.final_states[lane] = controller.state
            report.samples[lane] = {
                name: signal.value
                for name, signal in design.output_signals.items()}
            for bound_words, lane_words in pairs:
                lane_words[:] = bound_words
        return report
