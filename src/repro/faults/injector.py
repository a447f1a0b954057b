"""The strike injector: one neutron in, one execution record out.

The injection pipeline for one strike (Section IV-D's "at most one neutron
generating a failure per execution" regime):

1. sample the struck resource ∝ the device's per-resource cross-sections
   for this kernel (footprint x sensitivity x stress x scheduler strain);
2. roll the architectural fate — ECC scrubbing and dead state mask, control
   strikes crash or hang with the resource's profile;
3. a data-reaching strike maps to a kernel fault site (or is masked when
   the kernel never consumes that resource's data);
4. the kernel replays the corruption as a sparse delta over its golden
   output (or, where it has no closed form for that fault, re-executes
   with the corruption applied mid-flight by its own arithmetic); a
   blown-up solve is a crash;
5. the output is diffed against the golden copy and the paper's four
   metrics are evaluated — identical output means the algorithm itself
   masked the corruption.

Every step draws from a per-execution seed, so any record can be replayed
in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.rng import (
    FastRngBatch,
    stable_seed_prefix,
    stable_seed_suffixed,
)
from repro.arch.device import DeviceModel
from repro.arch.resources import ResourceKind
from repro.core.criticality import evaluate_execution
from repro.core.filtering import PAPER_THRESHOLD_PCT
from repro.faults.batch import evaluate_sparse_batch
from repro.faults.outcomes import ExecutionRecord, OutcomeKind
from repro.faults.sites import site_weights
from repro.kernels.base import Kernel, KernelCrashError, KernelFault
from repro.observability import runtime as _obs_runtime


@dataclass
class Injector:
    """Injects single strikes into a (kernel, device) pair.

    Args:
        kernel: the workload under beam.
        device: the accelerator model.
        seed: campaign seed; execution ``i`` uses the derived stream
            ``(seed, kernel, device, i)`` and nothing else.
        threshold_pct: relative-error tolerance for the filtered metrics.
    """

    kernel: Kernel
    device: DeviceModel
    seed: int = 0
    threshold_pct: float = PAPER_THRESHOLD_PCT
    #: Mirror fast-path counts into the observability registry as they
    #: happen.  Chunk runners set this ``False`` and ship the instance
    #: counters with the finished chunk instead: the parent folds them
    #: exactly once per *successful* chunk, so a chunk that fails partway
    #: and is retried cannot double-count its partial progress.
    mirror_metrics: bool = True

    #: Executions resolved by delta replay (this instance).
    fastpath_hits: int = 0
    #: Executions that fell back to full re-execution (this instance).
    fastpath_fallbacks: int = 0

    def _note_fastpath(self, hit: bool) -> None:
        """Count one fast-path decision; mirror it into the registry, if any.

        Pool *worker* processes have no registry configured, so the executor
        ships the instance counters back with each chunk and folds them in
        parent-side (the golden-cache pattern).
        """
        if hit:
            self.fastpath_hits += 1
        else:
            self.fastpath_fallbacks += 1
        if not self.mirror_metrics:
            return
        metrics = _obs_runtime.get_metrics()
        if metrics is None:
            return
        if hit:
            metrics.counter(
                "repro_fastpath_hits_total",
                "Executions resolved by the delta-replay fast path",
                labels=("kernel",),
            ).inc(kernel=self.kernel.name)
        else:
            metrics.counter(
                "repro_fastpath_fallbacks_total",
                "Fast-path executions that fell back to full re-execution",
                labels=("kernel",),
            ).inc(kernel=self.kernel.name)

    def __post_init__(self):
        weights = self.device.strike_weights(self.kernel)
        if not weights:
            raise ValueError(
                f"device {self.device.name!r} exposes no strikeable resources "
                f"for kernel {self.kernel.name!r}"
            )
        self._kinds = sorted(weights, key=lambda k: k.value)
        total = sum(weights.values())
        self._probabilities = np.array([weights[k] / total for k in self._kinds])
        self._total_cross_section = total
        # Per-strike sampling tables, hoisted out of the hot loop.  The CDFs
        # replicate ``Generator.choice(n, p=p)``'s internal arithmetic
        # (cumsum normalised by its last entry, searchsorted over one
        # ``random()`` draw) so ``_fate`` consumes the identical stream and
        # picks the identical bucket.  Profiles, flip models and sharing
        # breadths are deterministic per (device, kernel, kind) — caching
        # them is a pure hoist.
        cdf = np.cumsum(self._probabilities)
        cdf /= cdf[-1]
        self._kind_cdf = cdf
        self._profiles = {k: self.device.outcome_profile(k) for k in self._kinds}
        self._flips = {
            k: self.device.flip_model(k, self.kernel.name) for k in self._kinds
        }
        self._sharings = {
            k: self.device.sharing_breadth(k, self.kernel) for k in self._kinds
        }
        self._site_tables: dict = {}
        for kind in self._kinds:
            site_w = site_weights(self.kernel, kind)
            if not site_w:
                self._site_tables[kind] = None
                continue
            names = sorted(site_w)
            site_p = np.array([site_w[name] for name in names])
            site_cdf = np.cumsum(site_p)
            site_cdf /= site_cdf[-1]
            self._site_tables[kind] = (
                [self.kernel.site(name) for name in names],
                site_cdf,
            )
        # Pre-encoded digest prefixes: the strike/fault seed for index ``i``
        # only varies in its final part, so hash the shared parts once.
        self._strike_prefix = stable_seed_prefix(
            self.seed, "strike", self.kernel.name, self.device.name
        )
        self._fault_prefix = stable_seed_prefix(self.seed, "fault", self.kernel.name)

    @property
    def total_cross_section(self) -> float:
        """Expected strikes per unit fluence (a.u.) — the FIT normaliser."""
        return self._total_cross_section

    def _fate(self, index: int, rng: np.random.Generator):
        """Roll phases 1–3 of the pipeline for one strike.

        Returns ``(record, kind, site, fault)``: ``record`` is non-``None``
        for strikes resolved before the kernel is touched (architectural
        masking / crash / hang, or corrupted data the kernel never
        consumes); otherwise the remaining fields describe the
        data-reaching corruption still to be executed.

        Draw-for-draw identical to the historical inline code:
        ``Generator.choice`` is replaced by ``searchsorted`` over the
        cached CDF, which consumes the same single double and selects the
        same bucket.
        """
        kind = self._kinds[
            int(self._kind_cdf.searchsorted(rng.random(), side="right"))
        ]
        profile = self._profiles[kind]

        roll = rng.uniform()
        if roll < profile.p_masked:
            return (
                ExecutionRecord(
                    index=index, outcome=OutcomeKind.MASKED, resource=kind,
                    detail="architectural masking (ECC / dead state)",
                ),
                kind, None, None,
            )
        roll -= profile.p_masked
        if roll < profile.p_crash:
            return (
                ExecutionRecord(
                    index=index, outcome=OutcomeKind.CRASH, resource=kind,
                    detail="architectural crash",
                ),
                kind, None, None,
            )
        roll -= profile.p_crash
        if roll < profile.p_hang:
            return (
                ExecutionRecord(
                    index=index, outcome=OutcomeKind.HANG, resource=kind,
                    detail="architectural hang",
                ),
                kind, None, None,
            )

        table = self._site_tables[kind]
        if table is None:
            return (
                ExecutionRecord(
                    index=index, outcome=OutcomeKind.MASKED, resource=kind,
                    detail="corrupted data not consumed by the kernel",
                ),
                kind, None, None,
            )
        sites, site_cdf = table
        site = sites[int(site_cdf.searchsorted(rng.random(), side="right"))]

        fault = KernelFault(
            site=site.name,
            progress=float(rng.uniform()),
            flip=self._flips[kind],
            seed=stable_seed_suffixed(self._fault_prefix, index),
            extent=(
                self.device.burst_extent(kind, rng) if site.supports_extent else 1
            ),
            sharing=self._sharings[kind],
        )
        return None, kind, site, fault

    def _fates(self, indices: list) -> list:
        """Phases 1–3 for every index, over batch-seeded RNG streams.

        :class:`~repro._util.rng.FastRngBatch` replays the exact per-index
        ``default_rng`` streams, so each fate is a pure function of
        ``(seed, kernel, device, index)`` whatever else shares the batch.
        """
        streams = FastRngBatch(
            [stable_seed_suffixed(self._strike_prefix, i) for i in indices]
        )
        fates = []
        index = None
        try:
            for pos, index in enumerate(indices):
                fates.append(self._fate(index, streams.rng(pos)))
        except Exception as exc:
            _blame(exc, index)
            raise
        return fates

    def _resolve_dense(
        self, index: int, kind: ResourceKind, site, fault: KernelFault
    ) -> ExecutionRecord:
        """Phases 4–5 for one data-reaching fault by full re-execution."""
        try:
            output = self.kernel.run(fault).output
        except KernelCrashError as crash:
            return ExecutionRecord(
                index=index, outcome=OutcomeKind.CRASH, resource=kind,
                site=site.name, fault=fault, detail=str(crash),
            )
        observation = self.kernel.observe(output)
        if not observation.is_sdc:
            return ExecutionRecord(
                index=index, outcome=OutcomeKind.MASKED, resource=kind,
                site=site.name, fault=fault,
                detail="corruption masked by the algorithm",
            )
        report = evaluate_execution(observation, threshold_pct=self.threshold_pct)
        return ExecutionRecord(
            index=index, outcome=OutcomeKind.SDC, resource=kind,
            site=site.name, report=report, fault=fault,
        )

    def classify_batch(self, indices) -> "list[tuple]":
        """Phases 1–3 only, batched: each index's fate without kernel work.

        Returns one ``(outcome, kind, site_name)`` triple per index:
        ``outcome`` is the :class:`OutcomeKind` for strikes resolved
        architecturally (masking / crash / hang / unconsumed data) and
        ``None`` for data-reaching strikes, whose ``site_name`` then names
        the fault site the strike would corrupt.

        This is the adaptive sampler's pre-classification pass
        (:mod:`repro.sampling`): the fate rolls are pure RNG — replayed
        draw-for-draw by :meth:`inject_batch` when an index is actually
        executed — so a planner can partition a whole candidate pool into
        equivalence classes at a tiny fraction of the cost of executing it.
        """
        fates = []
        for record, kind, site, _ in self._fates([int(i) for i in indices]):
            if record is not None:
                fates.append((record.outcome, kind, None))
            else:
                fates.append((None, kind, site.name))
        return fates

    def inject_batch(
        self, indices, *, modes: "list | None" = None
    ) -> list[ExecutionRecord]:
        """Simulate a chunk of strikes as one batched array program.

        The one production path, bit-identical to
        :meth:`inject_reference` (pinned per kernel × site by the
        differential suite):

        1. the architectural-fate rolls run up front (:meth:`_fates`), so
           only data-reaching strikes enter the kernel at all;
        2. the surviving faults go through
           :meth:`~repro.kernels.base.Kernel.run_delta_batch` — one
           stacked array program per kernel — with per-fault fallback:
           a fault the kernel cannot replay in closed form re-executes
           densely (:meth:`~repro.kernels.base.Kernel.run`) alone, never
           the whole chunk;
        3. the resulting sparse deltas are observed and evaluated in one
           concatenated pass (:func:`repro.faults.batch
           .evaluate_sparse_batch`).

        An exception raised for one execution — its fate rolls or its
        dense fallback — carries that execution's index as
        ``strike_index``; one raised by a stacked pass over several faults
        carries none.  ``modes``, when given, is extended with one entry
        per record: ``"hit"`` (resolved by delta replay), ``"fallback"``
        (re-executed densely) or ``None`` (never reached the kernel).
        """
        indices = [int(i) for i in indices]
        records: list = [None] * len(indices)
        fastpath: list = [None] * len(indices)
        pending = []  # (position, kind, site, fault) for data-reaching strikes
        for pos, (record, kind, site, fault) in enumerate(self._fates(indices)):
            if record is not None:
                records[pos] = record
            else:
                pending.append((pos, kind, site, fault))

        try:
            slots = self.kernel.run_delta_batch([entry[3] for entry in pending])
        except Exception as exc:
            # A kernel names the fault whose own replay raised; a stacked
            # pass over several faults names none.
            at = getattr(exc, "fault_position", None)
            if at is None and len(pending) == 1:
                at = 0
            if at is not None:
                _blame(exc, indices[pending[at][0]])
            raise
        sparse_entries = []  # pending entries whose delta replay succeeded
        sparses = []
        pos = None
        try:
            for (pos, kind, site, fault), slot in zip(pending, slots):
                if slot is None:
                    fastpath[pos] = "fallback"
                    self._note_fastpath(hit=False)
                    records[pos] = self._resolve_dense(
                        indices[pos], kind, site, fault
                    )
                    continue
                fastpath[pos] = "hit"
                self._note_fastpath(hit=True)
                if isinstance(slot, KernelCrashError):
                    records[pos] = ExecutionRecord(
                        index=indices[pos], outcome=OutcomeKind.CRASH,
                        resource=kind, site=site.name, fault=fault,
                        detail=str(slot),
                    )
                else:
                    sparse_entries.append((pos, kind, site, fault))
                    sparses.append(slot)
        except Exception as exc:
            _blame(exc, None if pos is None else indices[pos])
            raise

        evaluated = evaluate_sparse_batch(
            self.kernel, sparses, threshold_pct=self.threshold_pct
        )
        for (pos, kind, site, fault), (observation, report) in zip(
            sparse_entries, evaluated
        ):
            if report is None:
                records[pos] = ExecutionRecord(
                    index=indices[pos], outcome=OutcomeKind.MASKED,
                    resource=kind, site=site.name, fault=fault,
                    detail="corruption masked by the algorithm",
                )
            else:
                records[pos] = ExecutionRecord(
                    index=indices[pos], outcome=OutcomeKind.SDC,
                    resource=kind, site=site.name, report=report, fault=fault,
                )
        if modes is not None:
            modes.extend(fastpath)
        return records

    def inject_one(self, index: int) -> ExecutionRecord:
        """Simulate one struck execution and classify its outcome."""
        return self.inject_batch([index])[0]

    def inject_many(self, count: int, *, start: int = 0) -> list[ExecutionRecord]:
        """Simulate ``count`` struck executions, one per index in the
        half-open range ``[start, start + count)``."""
        return self.inject_batch(range(start, start + count))

    def inject_reference(self, indices) -> list[ExecutionRecord]:
        """Full re-execution of every data-reaching strike: the test oracle.

        The same fate rolls as :meth:`inject_batch`, then a dense
        :meth:`~repro.kernels.base.Kernel.run` and a full diff per fault —
        no delta replay, no fast-path counting.  The differential and
        golden suites compare production records against this; no
        campaign, store or CLI option reaches it.
        """
        indices = [int(i) for i in indices]
        return [
            record
            if record is not None
            else self._resolve_dense(index, kind, site, fault)
            for index, (record, kind, site, fault) in zip(
                indices, self._fates(indices)
            )
        ]


def _blame(exc: BaseException, index: "int | None") -> None:
    """Tag ``exc`` with the execution index it was raised for (first wins)."""
    if index is not None and not hasattr(exc, "strike_index"):
        exc.strike_index = index
