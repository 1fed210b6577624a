"""Streaming slot-deadline scheduler for the detection runtime.

FlexCore's throughput argument (§5.2) is framed against the LTE
real-time budget: every MIMO vector of a slot must be detected within
the 500 µs slot.  This module assembles the ``(subcarriers x frames)``
blocks the batch route assumes: :class:`FrameArrival` events are
grouped by *coherence key* (channel content, noise level, cell), and
each group is flushed through the shared
:class:`~repro.runtime.service.DetectionService` when its **batch
target** is met or its :mod:`repro.ofdm.lte` **slot deadline** expires,
whichever comes first.  Every flush is counted once into the run's
ledger (:class:`~repro.obs.ledger.FlushLedger`), which
:class:`SchedulerTelemetry` views and which folds into the farm's,
exactly once, at loop exit.

Two layers: :meth:`MicroBatcher.step` makes every decision, mapping
``(arrivals, now)`` to ``(flush buckets, sheds, next wake-up)``
(admission, target and deadline flushes, drains, fair-share cell order,
coalescing) without reading a clock, so the policy runs on a virtual
one.  :class:`StreamingScheduler`, the asyncio loop, only waits (on the
arrival queue, until the step's ``wake_s``) and resolves (each bucket
through the service, per-arrival futures of :class:`FrameDetection`).
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError, LoadShedError
from repro.flexcore.preprocessing import leading_path_probabilities
from repro.obs import NULL_TRACER, SPAN_FLUSH, FlushLedger, scheduler_summary
from repro.ofdm.lte import SLOT_DURATION_S, SYMBOLS_PER_SLOT, slot_deadline
from repro.runtime.batch import UplinkBatch
from repro.runtime.cache import context_key
from repro.utils.flops import NULL_COUNTER, FlopCounter

DEFAULT_CELL = "cell0"

#: Flush reasons recorded in telemetry (``batch``: one synchronous
#: ``detect_batch`` call of a batch stack, accounted as a flush).
FLUSH_TARGET = "target"
FLUSH_DEADLINE = "deadline"
FLUSH_DRAIN = "drain"
FLUSH_BATCH = "batch"


@dataclass
class FrameArrival:
    """One streamed unit of uplink work: frames for a single subcarrier.

    ``channel`` is the ``(Nr, Nt)`` matrix the frames came through;
    ``received`` one ``(Nr,)`` vector or an ``(F, Nr)`` burst (e.g. the
    7 symbols of one LTE slot); ``noise_var`` the per-antenna noise
    variance; ``cell`` a registered cell; ``arrival_s`` the monotonic
    arrival time, stamped by ``submit`` when ``None``.
    """

    channel: np.ndarray
    received: np.ndarray
    noise_var: float
    cell: str = DEFAULT_CELL
    arrival_s: "float | None" = None

    def __post_init__(self) -> None:
        channel = np.asarray(self.channel)
        received = np.asarray(self.received)
        if channel.ndim != 2:
            raise ConfigurationError(f"arrival channel must be (Nr, Nt), got {channel.shape}")
        if received.ndim == 1:
            received = received[None, :]
        if received.ndim != 2 or received.shape[1] != channel.shape[0]:
            raise ConfigurationError(
                f"arrival received must be (F, {channel.shape[0]}), got "
                f"{np.asarray(self.received).shape}"
            )
        self.channel = channel
        self.received = received
        self.noise_var = float(self.noise_var)

    @property
    def num_frames(self) -> int:
        return self.received.shape[0]


@dataclass(frozen=True)
class FlushRecord:
    """Telemetry for one dispatched micro-batch (one service call)."""

    cell: str
    reason: str
    subcarriers: int
    frames: int
    first_arrival_s: float
    flushed_s: float
    completed_s: float
    deadline_s: float

    @property
    def latency_s(self) -> float:
        """Oldest-arrival-to-completion latency of the flush."""
        return self.completed_s - self.first_arrival_s

    @property
    def deadline_met(self) -> bool:
        """Whether every flushed group beat its slot deadline
        (``deadline_s`` is the earliest of theirs)."""
        return self.completed_s <= self.deadline_s


@dataclass
class FrameDetection:
    """What a submitted arrival's future resolves to."""

    indices: np.ndarray
    llrs: "np.ndarray | None"
    metadata: dict
    flush: FlushRecord


class SchedulerTelemetry:
    """Read-only view of one scheduler run: every key of
    :func:`~repro.obs.ledger.scheduler_summary` (``frames_detected``,
    ``deadline_hit_rate``, ``frames_missing``, ``flush_reasons``, ...)
    is an attribute, rendered from the run's ledger (``metrics``) when
    read."""

    def __init__(self, metrics):
        self.metrics = metrics

    def as_dict(self) -> dict:
        return scheduler_summary(self.metrics)

    def __getattr__(self, name: str):
        # Only reached for names that are not real attributes.
        try:
            return scheduler_summary(self.__dict__["metrics"])[name]
        except KeyError:
            raise AttributeError(name) from None


@dataclass
class _Group:
    """Pending frames sharing one coherence key (channel, noise, cell)."""

    cell: str
    key: bytes
    channel: np.ndarray
    noise_var: float
    first_arrival_s: float
    deadline_s: float
    arrivals: list = field(default_factory=list)
    frames: int = 0
    reason: str = FLUSH_TARGET


@dataclass(frozen=True)
class Step:
    """One decision of :meth:`MicroBatcher.step`.

    ``buckets`` are the flushes in dispatch order, each a list of one
    cell's groups sharing ``(noise_var, frames, reason)``: one service
    call.  ``sheds`` are the ``(arrival, future)`` pairs admission
    refused.  ``wake_s`` is the earliest pending deadline, ``math.inf``
    when nothing waits on the clock.
    """

    buckets: list
    sheds: list
    wake_s: float


class MicroBatcher:
    """Clock-free micro-batch assembly with slot-deadline bookkeeping.

    The flush contract (property-tested on a virtual clock in
    ``tests/runtime/test_scheduler.py``): a group created at time ``t``
    is flushed no later than ``slot_deadline(t, slot_budget_s)`` plus
    one event-loop tick, either because its frame count reached
    ``batch_target`` earlier or because the driver woke at ``wake_s``.

    Parameters
    ----------
    batch_target:
        Frames per coherence group that trigger an immediate flush.
        Defaults to :data:`repro.ofdm.lte.SYMBOLS_PER_SLOT`, one LTE
        slot's worth of symbol vectors per subcarrier.
    slot_budget_s:
        Deadline budget measured from a group's first arrival.
        Defaults to the LTE 500 µs slot; ``math.inf`` disables deadline
        flushes (drain-driven operation, e.g. offline batch replay).
    """

    def __init__(
        self, batch_target: int = SYMBOLS_PER_SLOT, slot_budget_s: float = SLOT_DURATION_S
    ):
        if batch_target < 1:
            raise ConfigurationError("batch_target must be >= 1")
        if not slot_budget_s > 0.0:
            raise ConfigurationError(f"slot budget must be positive, got {slot_budget_s}")
        self.batch_target = int(batch_target)
        self.slot_budget_s = float(slot_budget_s)
        self._groups: "dict[tuple, _Group]" = {}
        self._rr_offset = 0

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def pending_frames(self) -> int:
        return sum(group.frames for group in self._groups.values())

    def step(self, arrivals, now: float, admit=None, drain: bool = False) -> Step:
        """Decide one wake-up at time ``now``: the only flush decision.

        Each ``(arrival, future)`` pair is offered to ``admit(cell,
        frames)`` when given (a refusal sheds it), then grouped.  Groups
        that reach the target, groups whose deadline is ``<= now`` and,
        with ``drain``, everything pending are flushed.  Cells are
        served in sorted order from an offset that rotates every step
        that flushes, so a chronically busy cell cannot push its
        neighbours to the back of every cycle; a cell's groups of equal
        ``(noise_var, frames, reason)`` coalesce into one bucket, one
        ``(S, F, Nr)`` service call instead of S.
        """
        ready, sheds = [], []
        for arrival, future in arrivals:
            if admit is not None and not admit(arrival.cell, arrival.num_frames):
                sheds.append((arrival, future))
                continue
            group = self.add(arrival, future, now)
            if group is not None:
                ready.append(group)
        ready.extend(self.pop_expired(now))
        if drain:
            ready.extend(self.drain())
        by_cell: "dict[str, dict[tuple, list]]" = {}
        for group in ready:
            buckets = by_cell.setdefault(group.cell, {})
            buckets.setdefault((group.noise_var, group.frames, group.reason), []).append(group)
        order = sorted(by_cell)
        if order:
            offset = self._rr_offset % len(order)
            self._rr_offset += 1
            order = order[offset:] + order[:offset]
        return Step(
            [bucket for cell in order for bucket in by_cell[cell].values()],
            sheds,
            min((group.deadline_s for group in self._groups.values()), default=math.inf),
        )

    def add(self, arrival: FrameArrival, future, now: float) -> "_Group | None":
        """Account one arrival; return its group if the target is met."""
        when = arrival.arrival_s if arrival.arrival_s is not None else now
        key = (arrival.cell, context_key(arrival.channel, arrival.noise_var))
        group = self._groups.get(key)
        if group is None:
            group = _Group(
                cell=arrival.cell,
                key=key[1],
                channel=arrival.channel,
                noise_var=arrival.noise_var,
                first_arrival_s=when,
                deadline_s=slot_deadline(when, self.slot_budget_s)
                if math.isfinite(self.slot_budget_s)
                else math.inf,
            )
            self._groups[key] = group
        group.arrivals.append((arrival, future))
        group.frames += arrival.num_frames
        if group.frames >= self.batch_target:
            del self._groups[key]
            group.reason = FLUSH_TARGET
            return group
        return None

    def pop_expired(self, now: float) -> list:
        """Remove and return every group whose deadline passed."""
        expired = []
        for key, group in list(self._groups.items()):
            if group.deadline_s <= now:
                del self._groups[key]
                group.reason = FLUSH_DEADLINE
                expired.append(group)
        return expired

    def drain(self) -> list:
        """Remove and return everything pending (explicit flush/stop)."""
        drained = list(self._groups.values())
        for group in drained:
            group.reason = FLUSH_DRAIN
        self._groups.clear()
        return drained


def _fail(futures, error: BaseException) -> None:
    """Fail every future of ``futures`` not already resolved."""
    for future in futures:
        if not future.done():
            future.set_exception(error)


class StreamingScheduler:
    """Asyncio front-end: arrivals in, deadline-bounded flushes out.

    The loop waits on the arrival queue until the last step's
    ``wake_s``, hands everything queued to one :meth:`MicroBatcher.step`
    with one clock reading, fails the sheds and flushes each bucket.

    Parameters
    ----------
    farm:
        The :class:`~repro.runtime.cells.CellFarm` served.  Its service
        runs every flush, its observability hub traces each as a
        ``flush`` span (cell, reason, coherence key, batch size, path
        budget, latency, service time; a shared no-op without a hub),
        and each run's ledger folds into its ledger once, at loop exit.
    batch_target / slot_budget_s:
        Flush policy, see :class:`MicroBatcher`.
    use_soft:
        Detect every flush softly (cells' detectors must support it).
    counter:
        FLOP counter charged by every flush.
    governor:
        Optional :class:`~repro.control.governor.ComputeGovernor`:
        asked for the cell's path budget before every flush, for
        admission of every arrival (a refusal fails the arrival's future
        with :class:`~repro.errors.LoadShedError`), fed every flush
        (``observe_flush``) and offered a control tick once per loop.
    clock:
        Monotonic time source; injectable for tests.
    """

    def __init__(
        self,
        farm,
        batch_target: int = SYMBOLS_PER_SLOT,
        slot_budget_s: float = SLOT_DURATION_S,
        use_soft: bool = False,
        counter: FlopCounter = NULL_COUNTER,
        governor=None,
        clock=time.monotonic,
    ):
        if not farm.cells:
            raise ConfigurationError("StreamingScheduler needs at least one cell")
        self.cells = farm.cells
        self.service = farm.service
        obs = farm.obs
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        self._parent = farm.metrics
        self.batcher = MicroBatcher(batch_target=batch_target, slot_budget_s=slot_budget_s)
        self.use_soft = bool(use_soft)
        self.counter = counter
        self.governor = governor
        if governor is not None:
            # Bind the deadline frame of reference the governor's
            # observations are judged against.
            governor.bind_slot_budget(self.batcher.slot_budget_s)
            # Hand the governor a tracer for its tick spans, unless the
            # caller already attached one.
            if obs is not None and governor.tracer is NULL_TRACER:
                governor.tracer = obs.tracer
        self.clock = clock
        self._open_ledger()
        self._queue: "asyncio.Queue | None" = None
        self._task: "asyncio.Task | None" = None

    def _open_ledger(self) -> None:
        self._ledger = FlushLedger()
        #: This run's ledger — the only thing a flush is written to.
        self.metrics = self._ledger.metrics
        self.telemetry = SchedulerTelemetry(self.metrics)

    # ------------------------------------------------------------------
    async def __aenter__(self) -> "StreamingScheduler":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def start(self) -> None:
        if self._task is not None:
            raise ConfigurationError("scheduler already running")
        # Every run of the loop has its own ledger (a restarted
        # scheduler's last one was folded into the parent at loop exit).
        self._open_ledger()
        self._ledger.run_started()
        self._queue = asyncio.Queue()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain everything pending, then stop the loop."""
        if self._task is None:
            return
        await self._control("stop")
        await self._task
        self._task = None
        self._queue = None

    async def flush(self) -> None:
        """Force-dispatch every pending group and wait for completion."""
        await self._control("flush")

    def _running_queue(self) -> asyncio.Queue:
        if self._queue is None:
            raise ConfigurationError("scheduler is not running (use `async with` or start())")
        return self._queue

    async def _control(self, kind: str) -> None:
        done = asyncio.get_running_loop().create_future()
        self._running_queue().put_nowait((kind, done))
        # Also watch the loop task: if it died (a non-Exception error
        # escaping a flush, say KeyboardInterrupt), surface that instead
        # of awaiting a control acknowledgement that will never come.
        await asyncio.wait({done, self._task}, return_when=asyncio.FIRST_COMPLETED)
        if done.done():
            return
        self._task.result()  # re-raises the loop's exception
        raise ConfigurationError("scheduler loop exited before handling the control message")

    # ------------------------------------------------------------------
    async def submit(self, arrival: FrameArrival) -> asyncio.Future:
        """Enqueue one arrival; returns a future of :class:`FrameDetection`."""
        queue = self._running_queue()
        cell = self.cells.get(arrival.cell)
        if cell is None:
            raise ConfigurationError(
                f"unknown cell {arrival.cell!r}; registered: {', '.join(sorted(self.cells))}"
            )
        system = cell.detector.system
        if arrival.channel.shape != (system.num_rx_antennas, system.num_streams):
            raise ConfigurationError(
                f"cell {arrival.cell!r} expects ({system.num_rx_antennas}, "
                f"{system.num_streams}) channels, got {arrival.channel.shape}"
            )
        if arrival.arrival_s is None:
            arrival.arrival_s = self.clock()
        future = asyncio.get_running_loop().create_future()
        self._ledger.submitted(arrival.cell, arrival.num_frames)
        queue.put_nowait(("arrival", (arrival, future)))
        return future

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        clean = False
        try:
            await self._serve()
            clean = True
        finally:
            self._fail_stragglers(clean)
            # The one fold of this run, clean exit or not.
            self._parent.merge_dict(self.metrics.to_dict())

    def _fail_stragglers(self, clean: bool) -> None:
        """Resolve anything still pending when the loop exits: (nearly) a
        no-op after a clean stop; after a non-Exception error escaped a
        flush (say KeyboardInterrupt) it keeps consumers from awaiting
        forever."""
        error = ConfigurationError("scheduler loop terminated")
        _fail((future for group in self.batcher.drain() for _, future in group.arrivals), error)
        while not self._queue.empty():
            kind, payload = self._queue.get_nowait()
            if kind == "arrival":
                _fail([payload[1]], error)
            elif not clean:
                _fail([payload], error)
            elif not payload.done():
                payload.set_result(None)

    async def _serve(self) -> None:
        queue = self._queue
        admit = self.governor.admit if self.governor is not None else None
        wake_s = math.inf
        stopping = False
        while not stopping:
            timeout = None if math.isinf(wake_s) else max(0.0, wake_s - self.clock())
            items = []
            try:
                items.append(await asyncio.wait_for(queue.get(), timeout))
            except asyncio.TimeoutError:
                pass
            # Drain whatever else is immediately available so bursts
            # coalesce into wide flushes instead of S=1 dribbles.
            while not queue.empty():
                items.append(queue.get_nowait())
            controls = [done for kind, done in items if kind != "arrival"]
            stopping = any(kind == "stop" for kind, _ in items)
            arrivals = [payload for kind, payload in items if kind == "arrival"]
            step = self.batcher.step(arrivals, self.clock(), admit, drain=bool(controls))
            for arrival, future in step.sheds:
                self._ledger.shed(arrival.cell, arrival.num_frames)
                error = LoadShedError(
                    f"cell {arrival.cell!r} is shedding load: the floor path budget "
                    "cannot meet the slot deadline"
                )
                _fail([future], error)
            for bucket in step.buckets:
                self._flush(self.cells[bucket[0].cell], bucket)
            if self.governor is not None:
                self.governor.maybe_tick(self.clock())
            for done in controls:
                if not done.done():
                    done.set_result(None)
            wake_s = step.wake_s

    # ------------------------------------------------------------------
    def _flush(self, cell, bucket: list) -> None:
        """One bucket through the service: record, ledger, governor,
        futures.  A bucket that ``UplinkBatch`` (non-finite values,
        ragged shapes) or the service rejects is retried group by group,
        a rejected group arrival by arrival: only poisoned futures fail."""
        governor = self.governor
        path_budget = governor.path_budget(cell.cell_id) if governor is not None else None
        frames = sum(group.frames for group in bucket)
        if self._tracer.enabled:
            # Attributes (the key's digest etc.) only when a real tracer
            # records — the disabled path stays attribute-free.
            span_cm = self._tracer.span(
                SPAN_FLUSH,
                cell=cell.cell_id,
                reason=bucket[0].reason,
                subcarriers=len(bucket),
                frames=frames,
                coherence_key=hashlib.blake2b(bucket[0].key, digest_size=8).hexdigest(),
                path_budget=path_budget,
            )
        else:
            span_cm = self._tracer.span(SPAN_FLUSH)
        rejected = None
        with span_cm as span:
            try:
                batch = UplinkBatch(
                    channels=np.stack([group.channel for group in bucket]),
                    received=np.stack(
                        [np.concatenate([a.received for a, _ in g.arrivals]) for g in bucket]
                    ),
                    noise_var=bucket[0].noise_var,
                    keys=[group.key for group in bucket],
                )
                flushed_s = self.clock()
                result = self.service.detect(
                    cell.detector,
                    batch,
                    cache=cell.cache,
                    counter=self.counter,
                    use_soft=self.use_soft,
                    max_paths=path_budget,
                )
            except Exception as error:
                span.set(error=type(error).__name__)
                rejected = error
            else:
                completed_s = self.clock()
                record = FlushRecord(
                    cell.cell_id,
                    bucket[0].reason,
                    len(bucket),
                    frames,
                    min(group.first_arrival_s for group in bucket),
                    flushed_s,
                    completed_s,
                    min(group.deadline_s for group in bucket),
                )
                on_time = sum(g.frames for g in bucket if completed_s <= g.deadline_s)
                span.set(
                    latency_s=record.latency_s,
                    service_s=completed_s - flushed_s,
                    deadline_met=record.deadline_met,
                )
                stats = result.stats
                self._ledger.account(
                    record, len(bucket), frames - on_time, stats["cache"], stats.get("transfers")
                )
                if governor is not None:
                    probabilities = leading_path_probabilities(result.prepared)
                    governor.observe_flush(cell.cell_id, record, on_time, probabilities)
                for sc, group in enumerate(bucket):
                    metadata, offset = result.per_subcarrier_metadata[sc], 0
                    for arrival, future in group.arrivals:
                        rows = np.s_[sc, offset : offset + arrival.num_frames]
                        offset += arrival.num_frames
                        if not future.done():
                            llrs = None if result.llrs is None else result.llrs[rows]
                            future.set_result(
                                FrameDetection(result.indices[rows], llrs, metadata, record)
                            )
        if rejected is None:
            return
        arrivals = bucket[0].arrivals
        if len(bucket) == 1 and len(arrivals) == 1:
            _fail([arrivals[0][1]], rejected)
            return
        if len(bucket) == 1:
            bucket = [replace(bucket[0], arrivals=[a], frames=a[0].num_frames) for a in arrivals]
        for group in bucket:
            self._flush(cell, [group])
