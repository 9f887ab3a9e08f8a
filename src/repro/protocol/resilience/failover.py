"""Schedule failover: availability degrades, privacy never does.

When the quarantine set changes, the failover controller recomputes what
the sender should do with the surviving channels:

* **restored** -- the quarantine set is empty again: the sampler the node
  was attached with is put back (the optimal plan).
* **replanned** -- requirements were given: the LP
  (:func:`repro.core.planner.plan_max_rate`) is re-solved over the
  surviving subset under the *original* requirements, with the kappa
  floor passed as ``min_kappa`` so the search can only trade rate, never
  the privacy threshold.  The sub-plan's subsets are remapped back to
  original channel indices.
* **masked** -- no requirements (dynamic ReMICSS): the (k, m) sampler is
  kept -- its thresholds are untouched, so kappa is preserved by
  construction -- and the write selector simply excludes quarantined
  channels, provided enough survivors remain for the largest m.
* **degraded** -- nothing feasible survives: admission is paused at the
  source queue (recording :class:`~repro.core.planner.NoFeasiblePlanError`)
  rather than sending shares under a weaker threshold.  Leak nothing,
  deliver nothing.

Every applied decision is appended to :attr:`FailoverController.records`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.core.channel import ChannelSet
from repro.core.planner import NoFeasiblePlanError, Plan, Requirements, plan_max_rate
from repro.core.schedule import ShareSchedule
from repro.protocol.remicss import RemicssNode
from repro.protocol.scheduler import (
    DynamicParameterSampler,
    ExplicitScheduler,
    ParameterSampler,
)


def sampler_kappa_floor(sampler: ParameterSampler) -> float:
    """The privacy threshold floor implied by a sampler.

    For an explicit schedule this is the minimum threshold in its
    support; for the dynamic sampler it is floor(kappa) (the smallest
    threshold its atom mixture can draw).
    """
    if isinstance(sampler, ExplicitScheduler):
        return float(min(k for (k, _members), _p in sampler.schedule.support()))
    if isinstance(sampler, DynamicParameterSampler):
        return float(math.floor(sampler.kappa))
    raise TypeError(f"cannot derive a kappa floor from {type(sampler).__name__}")


def schedule_min_threshold(schedule: ShareSchedule) -> int:
    """The smallest threshold k any atom of ``schedule`` can sample."""
    return min(k for (k, _members), _p in schedule.support())


@dataclass(frozen=True)
class FailoverRecord:
    """One applied failover decision."""

    time: float
    quarantined: Tuple[int, ...]
    mode: str  # "restored" | "replanned" | "masked" | "degraded"
    plan: Optional[Plan] = None
    error: Optional[str] = None


class FailoverController:
    """Swaps a node's sampler as the quarantine set evolves.

    Args:
        node: the protocol node whose sampler is managed.
        channels: the model channel set the node runs over.
        rng: seeded stream for swapped-in explicit schedulers.
        requirements: the deployment's bounds; when given, failover
            re-solves the LP over survivors, otherwise it masks the
            dynamic selector.

    The privacy threshold floor every failover holds is the one implied
    by the sampler the node is attached with.
    """

    def __init__(
        self,
        node: RemicssNode,
        channels: ChannelSet,
        rng,
        requirements: Optional[Requirements] = None,
    ):
        self.node = node
        self.channels = channels
        self.rng = rng
        self.requirements = requirements
        self.base_sampler = node.sampler
        self.kappa_floor = sampler_kappa_floor(self.base_sampler)
        self.records: List[FailoverRecord] = []
        self.degraded = False

    def apply(self, now: float, quarantined: FrozenSet[int]) -> FailoverRecord:
        """Recompute the sampler for the given quarantine set."""
        excluded = sorted(quarantined)
        self.node.sender.selector.set_excluded(quarantined)
        if not quarantined:
            record = FailoverRecord(time=now, quarantined=(), mode="restored")
            self._install(self.base_sampler)
        elif self.requirements is not None:
            record = self._replan(now, tuple(excluded))
        else:
            record = self._mask(now, tuple(excluded))
        self.records.append(record)
        return record

    # -- strategies ---------------------------------------------------------------

    def _replan(self, now: float, excluded: Tuple[int, ...]) -> FailoverRecord:
        survivors = [i for i in range(self.channels.n) if i not in set(excluded)]
        if not survivors:
            return self._degrade(now, excluded, "all channels quarantined")
        sub = ChannelSet(self.channels.subset(survivors))
        try:
            plan = plan_max_rate(sub, self.requirements, min_kappa=self.kappa_floor)
        except NoFeasiblePlanError as exc:
            return self._degrade(now, excluded, str(exc))
        schedule = self._remap(plan.schedule, survivors)
        if schedule_min_threshold(schedule) < math.floor(self.kappa_floor):
            # Belt and braces: min_kappa already constrains the search.
            return self._degrade(
                now, excluded,
                f"failover plan threshold below kappa floor {self.kappa_floor}",
            )
        self._install(ExplicitScheduler(schedule, self.rng))
        return FailoverRecord(time=now, quarantined=excluded, mode="replanned", plan=plan)

    def _mask(self, now: float, excluded: Tuple[int, ...]) -> FailoverRecord:
        survivors = self.channels.n - len(excluded)
        needed = self._max_multiplicity(self.base_sampler)
        if survivors < needed:
            return self._degrade(
                now, excluded,
                f"{survivors} surviving channels cannot carry m={needed} shares",
            )
        self._install(self.base_sampler)
        return FailoverRecord(time=now, quarantined=excluded, mode="masked")

    def _degrade(self, now: float, excluded: Tuple[int, ...], why: str) -> FailoverRecord:
        error = NoFeasiblePlanError(why)
        self.degraded = True
        self.node.sender.admission_paused = True
        return FailoverRecord(
            time=now, quarantined=excluded, mode="degraded", error=str(error)
        )

    # -- helpers ------------------------------------------------------------------

    def _install(self, sampler: ParameterSampler) -> None:
        self.degraded = False
        self.node.sender.sampler = sampler
        self.node.sender.resample_head()

    def _remap(self, schedule: ShareSchedule, survivors: List[int]) -> ShareSchedule:
        """Lift a sub-channel-set schedule back to original indices."""
        probs = {}
        for (k, members), prob in schedule.support():
            original = frozenset(survivors[j] for j in members)
            probs[(k, original)] = prob
        return ShareSchedule(self.channels, probs)

    @staticmethod
    def _max_multiplicity(sampler: ParameterSampler) -> int:
        if isinstance(sampler, ExplicitScheduler):
            return max(len(members) for (_k, members), _p in sampler.schedule.support())
        if isinstance(sampler, DynamicParameterSampler):
            return math.ceil(sampler.mu)
        raise TypeError(f"cannot derive multiplicity from {type(sampler).__name__}")
