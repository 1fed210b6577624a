"""Streaming slot-deadline scheduler for the detection runtime.

FlexCore's throughput argument (§5.2) is framed against the LTE
real-time budget: every MIMO vector of a slot must be detected within
the 500 µs slot duration.  The batch route assumes somebody already
assembled a full ``(subcarriers x frames)`` block; this module is that
somebody — an asyncio loop that ingests :class:`FrameArrival` events as
the radio produces them, groups them by *coherence key* (channel
content, noise level, cell), and flushes each assembled micro-batch
through the shared :class:`~repro.runtime.service.DetectionService`
either when a **batch target** is met or when the
:mod:`repro.ofdm.lte` **slot deadline** expires — whichever comes
first.  Every flush is counted once, into the run's own ledger
(:class:`~repro.obs.ledger.FlushLedger`: frames, deadline hits, latency,
cache and transfer movement, labelled by cell), so an operator can see
how close the deployment runs to the real-time edge;
:class:`SchedulerTelemetry` is its read-only view, and at loop exit the
ledger folds, exactly once, into the scheduler's parent (the farm's).

Two layers, deliberately separated:

* :class:`MicroBatcher` — pure, clock-free flush bookkeeping (group
  assembly, deadlines, target checks).  Being free of asyncio makes the
  deadline arithmetic property-testable: flush decisions can be driven
  with simulated timestamps.
* :class:`StreamingScheduler` — the asyncio driver: an arrival queue,
  a deadline-armed wait, fair-share dispatch across registered cells,
  and per-arrival futures resolving to :class:`FrameDetection`.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, LoadShedError
from repro.flexcore.preprocessing import leading_path_probabilities
from repro.obs import (
    NULL_TRACER,
    SPAN_FLUSH,
    FlushLedger,
    scheduler_summary,
)
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

    Attributes
    ----------
    channel:
        ``(Nr, Nt)`` channel matrix the frames were received through.
    received:
        ``(Nr,)`` one received vector, or ``(F, Nr)`` a burst of them
        (e.g. the 7 symbols of one LTE slot arriving together).
    noise_var:
        Per-antenna noise variance.
    cell:
        Which registered cell this arrival belongs to.
    arrival_s:
        Monotonic-clock arrival timestamp; stamped by the scheduler on
        ``submit`` when ``None``.
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
            raise ConfigurationError(
                f"arrival channel must be (Nr, Nt), got {channel.shape}"
            )
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
        """Whether every group in the flush beat its slot deadline.

        ``deadline_s`` is the *earliest* deadline across the flushed
        groups, so meeting it means every group met its own.
        """
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

    def add(self, arrival: FrameArrival, future) -> None:
        self.arrivals.append((arrival, future))
        self.frames += arrival.num_frames

    def stacked_received(self) -> np.ndarray:
        return np.concatenate([a.received for a, _ in self.arrivals], axis=0)


class MicroBatcher:
    """Clock-free micro-batch assembly with slot-deadline bookkeeping.

    The flush contract (property-tested in
    ``tests/runtime/test_scheduler.py``): a group created at time ``t``
    must be flushed no later than ``slot_deadline(t, slot_budget_s)``
    plus one event-loop tick — either because its frame count reached
    ``batch_target`` earlier, or because the driver's deadline wait
    expired.

    Parameters
    ----------
    batch_target:
        Frames per coherence group that trigger an immediate flush.
        Defaults to :data:`repro.ofdm.lte.SYMBOLS_PER_SLOT` — one LTE
        slot's worth of symbol vectors per subcarrier.
    slot_budget_s:
        Deadline budget measured from a group's first arrival.
        Defaults to the LTE 500 µs slot; ``math.inf`` disables deadline
        flushes (drain-driven operation, e.g. offline batch replay).
        An under-target group is flushed at its deadline.
    """

    def __init__(
        self,
        batch_target: int = SYMBOLS_PER_SLOT,
        slot_budget_s: float = SLOT_DURATION_S,
    ):
        if batch_target < 1:
            raise ConfigurationError("batch_target must be >= 1")
        if not slot_budget_s > 0.0:
            raise ConfigurationError(
                f"slot budget must be positive, got {slot_budget_s}"
            )
        self.batch_target = int(batch_target)
        self.slot_budget_s = float(slot_budget_s)
        self._groups: "OrderedDict[tuple, _Group]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def pending_frames(self) -> int:
        return sum(group.frames for group in self._groups.values())

    # ------------------------------------------------------------------
    def add(
        self, arrival: FrameArrival, future, now: float
    ) -> "_Group | None":
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
        group.add(arrival, future)
        if group.frames >= self.batch_target:
            del self._groups[key]
            group.reason = FLUSH_TARGET
            return group
        return None

    def next_deadline(self) -> "float | None":
        """Earliest pending deadline, or ``None`` when nothing waits."""
        if not self._groups:
            return None
        return min(group.deadline_s for group in self._groups.values())

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


class StreamingScheduler:
    """Asyncio front-end: arrivals in, deadline-bounded flushes out.

    Parameters
    ----------
    farm:
        The :class:`~repro.runtime.cells.CellFarm` whose cells this
        scheduler serves.  Its service runs every flush, its
        observability hub traces them (every flush becomes a ``flush``
        span: cell, reason, coherence key, batch size, path budget,
        latency, service time; with no hub spans are a shared no-op,
        the accounting is not), and its ledger is the parent each run's
        own ledger folds into, once, at loop exit.
    batch_target / slot_budget_s:
        Flush policy, see :class:`MicroBatcher`.
    use_soft:
        Detect every flush softly (cells' detectors must support it).
    counter:
        FLOP counter charged by every flush.
    governor:
        Optional control plane, a
        :class:`~repro.control.governor.ComputeGovernor`: consulted for
        the per-cell path budget before every flush
        (``path_budget(cell_id)``), for admission on every arrival
        (``admit(cell_id, frames, now)`` — a refusal fails the
        arrival's future with :class:`~repro.errors.LoadShedError`),
        fed every flush (``observe_flush``) and offered a control tick
        (``maybe_tick(now)``) once per service loop.
    clock:
        Monotonic time source; injectable for tests.

    Usage::

        async with farm.scheduler(slot_budget_s=budget) as sched:
            fut = await sched.submit(FrameArrival(h, y, noise_var))
            ...
            await sched.flush()          # force-dispatch stragglers
            detection = await fut
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
            raise ConfigurationError(
                "StreamingScheduler needs at least one cell"
            )
        self.cells = farm.cells
        self.service = farm.service
        obs = farm.obs
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        self._parent = farm.metrics
        self.batcher = MicroBatcher(
            batch_target=batch_target, slot_budget_s=slot_budget_s
        )
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
        self._rr_offset = 0

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

    async def _control(self, kind: str) -> None:
        if self._queue is None:
            raise ConfigurationError(
                "scheduler is not running (use `async with` or start())"
            )
        done = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((kind, done))
        if self._task is None:
            await done
            return
        # Also watch the loop task: if it died (a non-Exception error
        # escaping a flush, say KeyboardInterrupt), surface that instead
        # of awaiting a control acknowledgement that will never come.
        await asyncio.wait(
            {done, self._task}, return_when=asyncio.FIRST_COMPLETED
        )
        if done.done():
            return
        self._task.result()  # re-raises the loop's exception
        raise ConfigurationError(
            "scheduler loop exited before handling the control message"
        )

    # ------------------------------------------------------------------
    async def submit(self, arrival: FrameArrival) -> asyncio.Future:
        """Enqueue one arrival; returns a future of :class:`FrameDetection`."""
        if self._queue is None:
            raise ConfigurationError(
                "scheduler is not running (use `async with` or start())"
            )
        cell = self.cells.get(arrival.cell)
        if cell is None:
            raise ConfigurationError(
                f"unknown cell {arrival.cell!r}; registered: "
                f"{', '.join(sorted(self.cells))}"
            )
        system = cell.detector.system
        if arrival.channel.shape != (
            system.num_rx_antennas,
            system.num_streams,
        ):
            raise ConfigurationError(
                f"cell {arrival.cell!r} expects "
                f"({system.num_rx_antennas}, {system.num_streams}) "
                f"channels, got {arrival.channel.shape}"
            )
        if arrival.arrival_s is None:
            arrival.arrival_s = self.clock()
        future = asyncio.get_running_loop().create_future()
        self._ledger.submitted(arrival.cell, arrival.num_frames)
        self._queue.put_nowait(("arrival", (arrival, future)))
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
        """Resolve anything still pending when the loop exits.

        On a clean stop the batcher was drained and the queue emptied,
        so this is (nearly) a no-op; if the loop died abnormally — a
        non-Exception error such as KeyboardInterrupt escaping a flush —
        it keeps consumers from awaiting forever.
        """
        error = ConfigurationError("scheduler loop terminated")
        for group in self.batcher.drain():
            for _, future in group.arrivals:
                if not future.done():
                    future.set_exception(error)
        while True:
            try:
                kind, payload = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if kind == "arrival":
                _, future = payload
                if not future.done():
                    future.set_exception(error)
            elif not payload.done():
                if clean:
                    payload.set_result(None)
                else:
                    payload.set_exception(error)

    async def _serve(self) -> None:
        queue = self._queue
        stopping = False
        while not stopping:
            deadline = self.batcher.next_deadline()
            item = None
            if deadline is None or math.isinf(deadline):
                item = await queue.get()
            else:
                timeout = max(0.0, deadline - self.clock())
                try:
                    item = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    item = None
            # Drain whatever else is immediately available so bursts
            # coalesce into wide flushes instead of S=1 dribbles.
            items = [] if item is None else [item]
            while True:
                try:
                    items.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            ready = []
            controls = []
            for kind, payload in items:
                if kind == "arrival":
                    arrival, future = payload
                    if self.governor is not None and not self.governor.admit(
                        arrival.cell, arrival.num_frames, self.clock()
                    ):
                        self._shed(arrival, future)
                        continue
                    group = self.batcher.add(arrival, future, self.clock())
                    if group is not None:
                        ready.append(group)
                else:
                    controls.append((kind, payload))
                    if kind == "stop":
                        stopping = True
            ready.extend(self.batcher.pop_expired(self.clock()))
            if controls:
                ready.extend(self.batcher.drain())
            self._dispatch(ready)
            if self.governor is not None:
                self.governor.maybe_tick(self.clock())
            for _, done in controls:
                if not done.done():
                    done.set_result(None)

    def _shed(self, arrival: FrameArrival, future) -> None:
        """Refuse one arrival on the governor's admission verdict."""
        self._ledger.shed(arrival.cell, arrival.num_frames)
        if not future.done():
            future.set_exception(
                LoadShedError(
                    f"cell {arrival.cell!r} is shedding load: the floor "
                    "path budget cannot meet the slot deadline"
                )
            )

    # ------------------------------------------------------------------
    def _dispatch(self, groups: list) -> None:
        """Flush ready groups, fair-share interleaved across cells.

        Groups are bucketed per cell, cells are served in round-robin
        order starting from a rotating offset (so a chronically busy
        cell cannot push its neighbours' flushes to the back of every
        cycle), and each cell's groups of equal frame count are
        coalesced into one multi-subcarrier service call.
        """
        if not groups:
            return
        by_cell: "OrderedDict[str, list]" = OrderedDict()
        for group in groups:
            by_cell.setdefault(group.cell, []).append(group)
        order = sorted(by_cell)
        offset = self._rr_offset % len(order)
        self._rr_offset += 1
        for cell_id in order[offset:] + order[:offset]:
            self._dispatch_cell(self.cells[cell_id], by_cell[cell_id])

    def _dispatch_cell(self, cell, groups: list) -> None:
        # Coalesce: equal (noise_var, frame-count, reason) groups stack
        # into one (S, F, Nr) batch — one backend call instead of S.
        buckets: "OrderedDict[tuple, list]" = OrderedDict()
        for group in groups:
            buckets.setdefault(
                (group.noise_var, group.frames, group.reason), []
            ).append(group)
        path_budget = (
            self.governor.path_budget(cell.cell_id)
            if self.governor is not None
            else None
        )
        tracer = self._tracer
        for (noise_var, _frames, _reason), bucket in buckets.items():
            if tracer.enabled:
                # Attributes (the key's digest etc.) only when a real tracer
                # records — the disabled path stays attribute-free.
                span_cm = tracer.span(
                    SPAN_FLUSH,
                    cell=cell.cell_id,
                    reason=bucket[0].reason,
                    subcarriers=len(bucket),
                    frames=sum(g.frames for g in bucket),
                    coherence_key=hashlib.blake2b(bucket[0].key, digest_size=8).hexdigest(),
                    path_budget=path_budget,
                )
            else:
                span_cm = tracer.span(SPAN_FLUSH)
            with span_cm as span:
                try:
                    # Built inside the try: a batch the boundary rejects
                    # (non-finite values, ragged shapes) fails its own
                    # futures instead of escaping the flush.
                    batch = UplinkBatch(
                        channels=np.stack([g.channel for g in bucket]),
                        received=np.stack([g.stacked_received() for g in bucket]),
                        noise_var=noise_var,
                        keys=[g.key for g in bucket],
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
                except Exception as error:  # resolve futures, keep serving
                    span.set(error=type(error).__name__)
                    for group in bucket:
                        for _, future in group.arrivals:
                            if not future.done():
                                future.set_exception(error)
                    continue
                completed_s = self.clock()
                record = FlushRecord(
                    cell=cell.cell_id,
                    reason=bucket[0].reason,
                    subcarriers=len(bucket),
                    frames=sum(g.frames for g in bucket),
                    first_arrival_s=min(g.first_arrival_s for g in bucket),
                    flushed_s=flushed_s,
                    completed_s=completed_s,
                    deadline_s=min(g.deadline_s for g in bucket),
                )
                frames_on_time = sum(
                    g.frames for g in bucket if completed_s <= g.deadline_s
                )
                span.set(
                    latency_s=record.latency_s,
                    service_s=completed_s - flushed_s,
                    deadline_met=record.deadline_met,
                )
                self._ledger.account(
                    record,
                    len(bucket),
                    record.frames - frames_on_time,
                    result.stats["cache"],
                    result.stats.get("transfers"),
                )
                if self.governor is not None:
                    self.governor.observe_flush(
                        cell.cell_id,
                        record,
                        frames_on_time,
                        leading_path_probabilities(result.prepared),
                    )
                for sc, group in enumerate(bucket):
                    offset = 0
                    for arrival, future in group.arrivals:
                        stop = offset + arrival.num_frames
                        if not future.done():
                            future.set_result(
                                FrameDetection(
                                    indices=result.indices[sc, offset:stop],
                                    llrs=(
                                        result.llrs[sc, offset:stop]
                                        if result.llrs is not None
                                        else None
                                    ),
                                    metadata=result.per_subcarrier_metadata[
                                        sc
                                    ],
                                    flush=record,
                                )
                            )
                        offset = stop
