"""Multi-process farm coordinator: one StackConfig, N supervised workers.

:class:`FarmCoordinator` partitions a streaming
:class:`~repro.api.StackConfig` across worker processes with
:meth:`~repro.api.StackConfig.split_cells`, ships each worker its
*serialized* slice (the worker rebuilds everything with
:func:`repro.api.build_stack` — no live objects cross the pipe), paces
workload scenarios through the fleet in slot chunks, and governs the
whole fleet against one global path budget with
:func:`repro.control.policy.allocate_budget`.  Every frame on a worker
pipe — handshake, commands, replies, ``stop`` — is JSON written by
``protocol.send`` and read by ``protocol.recv``.

Every exchange with the fleet — ``ping``, ``install_workload``,
``calibrate``, each chunk of ``run``, each budget install — is one
supervised round (:meth:`FarmCoordinator._round`): send every message,
apply the scripted kills, collect every reply.  A worker that dies
(SIGKILL, OOM, segfault) or hangs past the reply timeout before it
replies is killed, re-spawned **from the same config slice**, re-handed
the workload and its last awarded budgets, and asked again; the seeds
make a replayed chunk's frames identical to the ones that died with the
process.  So each chunk reply is a heartbeat, the chunk is the recovery
quantum, and every recovery is a :class:`WorkerRestart` in the merged
telemetry.

Accounting is one fold: every ``slots_done`` reply carries that chunk's
own complete ledger (a :meth:`~repro.obs.MetricsRegistry.to_dict`
payload), which the coordinator ``merge_dict``-s into this run's fleet
and per-worker ledgers (``report.scheduler`` / ``report.per_worker``)
and into its one lifetime ledger — the hub's registry when there is a
hub — that ``report.cells`` views.  A chunk that died with its worker
never replied, so it is in no ledger and its replay is counted once;
the lifetime totals live here, not in the workers, so they do not go
backwards across a re-spawn.  A worker that *reports* an error (a
deterministic exception escaped its stack) or sends a reply that is not
JSON is not re-spawned: replaying deterministic work re-raises
deterministic failures.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import asdict, dataclass, field, replace

from repro.api import StackConfig
from repro.control.policy import allocate_budget
from repro.control.workload import WorkloadScenario
from repro.errors import ConfigurationError, WorkerCrashError
from repro.farm.protocol import REPLY_FOR, recv, scenario_to_payload, send
from repro.farm.worker import worker_main
from repro.obs import (
    EVENT_WORKER_RESTART,
    NULL_TRACER,
    SPAN_CHUNK,
    WORKER_PID_BASE,
    MetricsRegistry,
    cell_summaries,
    get_global,
    scheduler_summary,
)

#: How often a waiting coordinator re-checks the pipe and the process.
_POLL_INTERVAL_S = 0.05


@dataclass(frozen=True)
class WorkerRestart:
    """One recovery event: which worker, why, and what was replayed."""

    worker: int
    reason: str  #: ``"died"`` or ``"hung"``
    phase: str  #: the command in flight, e.g. ``"run_slots[4:8)"``

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class FleetReport:
    """What one :meth:`FarmCoordinator.run` produced, fleet-wide.

    ``scheduler`` is the :func:`~repro.obs.ledger.scheduler_summary`
    view of this run's fold over every chunk of every worker — its
    ``summaries_merged`` counts the folded chunks and ``frames_missing``
    exposes any submitted-but-never-detected gap — and ``per_worker``
    the same view per worker.  ``cells`` views the coordinator's
    *lifetime* ledger: per-cell running totals over every ``run()`` so
    far (over everything folded into the hub, when one is shared),
    restarts or not.  ``restarts`` records every worker recovery, so
    telemetry from a run that survived a crash is distinguishable from
    a clean one.
    """

    workers: int
    slots: int
    slot_interval_s: float
    frames_offered: int
    elapsed_s: float
    scheduler: dict
    per_worker: "list[dict]"
    cells: dict
    budgets: dict
    restarts: "list[WorkerRestart]" = field(default_factory=list)

    @property
    def frames_detected(self) -> int:
        return self.scheduler["frames_detected"]

    @property
    def hit_rate(self) -> float:
        return self.scheduler["deadline_hit_rate"]

    @property
    def throughput_fps(self) -> float:
        return (
            self.frames_detected / self.elapsed_s if self.elapsed_s else 0.0
        )

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "frames_detected": self.frames_detected,
            "throughput_fps": self.throughput_fps,
        }


class _WorkerFailure(Exception):
    """Internal: a worker died or hung mid-request (recoverable)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Handle:
    """One worker process and the coordinator's view of it."""

    def __init__(self, index: int, payload: dict):
        self.index = index
        #: The serialized config slice — the whole recovery plan.
        self.payload = payload
        self.process = None
        self.conn = None
        self.cells: "list[str]" = []
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def teardown(self) -> None:
        """Kill the process if it still runs, join it, close the pipe."""
        if self.process is not None:
            if self.process.is_alive():
                self.process.kill()
            self.process.join()
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class FarmCoordinator:
    """Drive one streaming :class:`StackConfig` across worker processes.

    Parameters
    ----------
    config:
        The fleet-wide stack: a streaming farm, optionally governed.  A
        governor ``total_path_budget`` is applied *globally*: slices
        run their local control laws unconstrained and the coordinator
        water-fills the shared pool across the whole fleet each chunk.
    workers:
        Process count; cells are partitioned contiguously via
        :meth:`StackConfig.split_cells`.
    reply_timeout_s:
        Base patience for any reply.  Chunk replies get this *plus*
        twice the chunk's paced duration, so pacing never reads as a
        hang.  A worker that exceeds it is killed and re-spawned.
    max_restarts:
        Recoveries allowed per worker before the coordinator gives up
        with :class:`~repro.errors.WorkerCrashError`.
    slots_per_chunk:
        The dispatch/heartbeat/recovery quantum, in slots.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``.
    kill_script:
        ``{worker_index: chunk_index}`` — SIGKILL that worker right
        after that chunk is dispatched to the fleet, in every
        :meth:`run`.  The scripted crash the recovery tests, the CI
        smoke lane and the bench all share; :meth:`run` refuses an
        entry naming a worker or chunk it does not have.
    obs:
        An :class:`~repro.obs.Observability` hub the fleet timeline is
        folded into.  Defaults to the process-global hub (installed by
        the runner's ``--trace``), else what ``config.tracing`` builds.
        When a hub is present, every worker slice is shipped with
        tracing force-enabled and each ``slots_done`` reply's spans are
        merged here — one Chrome trace with a lane per worker, restart
        instants and all — and its registry is the lifetime ledger.
    """

    def __init__(
        self,
        config: StackConfig,
        workers: int,
        reply_timeout_s: float = 30.0,
        max_restarts: int = 2,
        slots_per_chunk: int = 4,
        start_method: "str | None" = None,
        kill_script: "dict[int, int] | None" = None,
        obs=None,
    ):
        if not config.farm.streaming:
            raise ConfigurationError(
                "FarmCoordinator needs a streaming farm config"
            )
        if reply_timeout_s <= 0:
            raise ConfigurationError("reply_timeout_s must be positive")
        if max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        if slots_per_chunk < 1:
            raise ConfigurationError("slots_per_chunk must be >= 1")
        self.config = config
        self.workers = workers
        self.reply_timeout_s = reply_timeout_s
        self.max_restarts = max_restarts
        self.slots_per_chunk = slots_per_chunk
        self.kill_script = dict(kill_script or {})
        self.restarts: "list[WorkerRestart]" = []
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._mp = multiprocessing.get_context(start_method)
        if obs is None:
            obs = get_global()
        if obs is None:
            obs = config.tracing.build()
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        #: The coordinator's lifetime ledger (``report.cells``).
        self.metrics = obs.metrics if obs is not None else MetricsRegistry()
        self._slices = config.split_cells(workers)
        if obs is not None:
            # Workers trace through their own (config-built) hub and
            # ship spans back per chunk, so force tracing on in every
            # slice even when only the coordinator side enabled it.
            self._slices = [
                replace(sub, tracing=replace(sub.tracing, enabled=True))
                for sub in self._slices
            ]
            for index in range(len(self._slices)):
                obs.tracer.set_process_name(
                    WORKER_PID_BASE + index, f"worker-{index}"
                )
        self._handles = [
            _Handle(index, sub.to_dict())
            for index, sub in enumerate(self._slices)
        ]
        self._started = False
        self._closed = False
        self._workload_message: "dict | None" = None
        self._scenario: "WorkloadScenario | None" = None
        self._last_awards: "dict[str, int]" = {}
        governor = config.governor
        self._total_budget = (
            governor.total_path_budget if governor is not None else None
        )

    # -- lifecycle -----------------------------------------------------
    @property
    def cell_ids(self) -> "tuple[str, ...]":
        return self.config.farm.cell_ids()

    def start(self) -> "FarmCoordinator":
        """Spawn every worker and wait for its ``ready`` handshake."""
        if self._started:
            return self
        self._started = True
        try:
            for handle in self._handles:
                self._spawn(handle)
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Stop the fleet: orderly ``stop`` first, SIGKILL stragglers."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if handle.alive and handle.conn is not None:
                try:
                    send(handle.conn, {"type": "stop"})
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 2.0
        for handle in self._handles:
            if handle.process is not None:
                handle.process.join(max(0.0, deadline - time.monotonic()))
            handle.teardown()

    def __enter__(self) -> "FarmCoordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- supervision ---------------------------------------------------
    def _spawn(self, handle: _Handle) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=worker_main,
            args=(child_conn, handle.payload),
            name=f"farm-worker-{handle.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        try:
            ready = self._await_reply(handle, "ready", self.reply_timeout_s)
        except _WorkerFailure as failure:
            raise WorkerCrashError(
                f"worker {handle.index} {failure.reason} during its "
                "startup handshake",
                worker=handle.index,
            ) from None
        handle.cells = list(ready["cells"])

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker — the crash the supervisor must survive."""
        handle = self._handles[index]
        if handle.alive:
            handle.process.kill()

    def _await_reply(self, handle: _Handle, expected: str, timeout: float) -> dict:
        """Wait for one reply; death, hang and worker errors surface."""
        deadline = time.monotonic() + timeout
        while True:
            try:  # a deadline already past costs no wait
                if handle.conn.poll(max(0.0, min(_POLL_INTERVAL_S, deadline - time.monotonic()))):
                    reply = recv(handle.conn)
                    break
            except (EOFError, OSError):
                raise _WorkerFailure("died") from None
            except ValueError as error:
                # Undecodable bytes are not a crash a re-spawn would cure.
                raise WorkerCrashError(
                    f"worker {handle.index} sent a reply that is not JSON "
                    f"(not re-spawned): {error}",
                    worker=handle.index,
                ) from None
            if not handle.alive:
                # Drain any reply that raced the death notice.
                if not handle.conn.poll(0):
                    raise _WorkerFailure("died")
            elif time.monotonic() > deadline:
                raise _WorkerFailure("hung")
        if reply.get("type") == "error":
            raise WorkerCrashError(
                f"worker {handle.index} reported an error (deterministic; "
                f"not re-spawned): {reply.get('error')}\n"
                f"{reply.get('traceback', '')}",
                worker=handle.index,
            )
        if reply.get("type") != expected:
            raise WorkerCrashError(
                f"worker {handle.index} replied {reply.get('type')!r} "
                f"where {expected!r} was expected",
                worker=handle.index,
            )
        return reply

    def _send(self, handle: _Handle, message: dict) -> None:
        try:
            send(handle.conn, message)
        except (OSError, ValueError):
            raise _WorkerFailure("died") from None

    def _recover(self, handle: _Handle, failure: _WorkerFailure,
                 phase: str) -> None:
        """Kill, re-spawn from the stored config slice, re-arm state."""
        handle.restarts += 1
        if handle.restarts > self.max_restarts:
            raise WorkerCrashError(
                f"worker {handle.index} {failure.reason} during {phase} "
                f"and exceeded max_restarts={self.max_restarts}",
                worker=handle.index,
            )
        handle.teardown()
        restart = WorkerRestart(handle.index, failure.reason, phase)
        self.restarts.append(restart)
        self.metrics.counter("repro_worker_restarts_total").inc()
        # Mark the recovery on the *worker's* timeline lane: the spans
        # that chunk produced died with the process, so the instant is
        # what explains the gap.
        self._tracer.instant(
            EVENT_WORKER_RESTART,
            restart.as_dict(),
            pid=WORKER_PID_BASE + handle.index,
        )
        self._spawn(handle)
        # The config rebuilt the stack; re-arm the workload and the
        # fleet's last budget awards so the replay resumes governed.
        if self._workload_message is not None:
            self._ask(handle, self._workload_message, "workload (recovery)")
        budgets = self._budgets_message(handle)
        if budgets is not None:
            self._ask(handle, budgets, "set_budgets")

    def _ask(self, handle: _Handle, message: dict, phase: str, timeout=None, deadline=None) -> dict:
        """One worker's reply to ``message`` (already on the pipe and
        awaited until the round's ``deadline`` when one is given): a worker
        that dies or hangs first is recovered and asked again, with a fresh
        ``timeout``."""
        expected = REPLY_FOR[message["type"]]
        timeout = self.reply_timeout_s if timeout is None else timeout
        while True:
            try:
                if deadline is None:
                    self._send(handle, message)
                wait = timeout if deadline is None else deadline - time.monotonic()
                return self._await_reply(handle, expected, wait)
            except _WorkerFailure as failure:
                self._recover(handle, failure, phase)
                deadline = None

    def _round(
        self, messages: "dict | list[dict | None]", phase: str, timeout=None, kill=()
    ) -> "list[dict | None]":
        """One supervised exchange with the whole fleet.

        ``messages`` is one message for every worker, or one per worker
        where ``None`` skips that worker (and its reply is ``None``).
        Every message is sent first — a failed send is left for the wait
        to find dead — then the ``kill`` workers are SIGKILLed, then
        every reply is collected through :meth:`_ask` against one deadline
        taken when the sends finish: W hung workers take one timeout, not W.
        """
        if isinstance(messages, dict):
            messages = [messages] * len(self._handles)
        for handle, message in zip(self._handles, messages):
            if message is not None:
                try:
                    self._send(handle, message)
                except _WorkerFailure:
                    pass
        deadline = time.monotonic() + (self.reply_timeout_s if timeout is None else timeout)
        for index in kill:
            self.kill_worker(index)
        return [
            None if message is None else self._ask(handle, message, phase, timeout, deadline)
            for handle, message in zip(self._handles, messages)
        ]

    def _budgets_message(self, handle: _Handle) -> "dict | None":
        """``set_budgets`` with this worker's share of the last awards."""
        awards = {cell: award for cell, award in self._last_awards.items() if cell in handle.cells}
        return {"type": "set_budgets", "budgets": awards} if awards else None

    def ping(self) -> "list[dict]":
        """Health-check every worker in one round; one that died or
        hangs is recovered and pinged again."""
        self._require_started()
        return self._round({"type": "ping"}, "ping")

    def _require_started(self) -> None:
        if not self._started or self._closed:
            raise ConfigurationError(
                "coordinator is not running (use `with FarmCoordinator"
                "(...) as coordinator:` or call start())"
            )

    # -- workload ------------------------------------------------------
    def install_workload(
        self,
        scenario: WorkloadScenario,
        noise_var: float,
        channel_seed: "int | None" = None,
        data_seed: "int | None" = None,
    ) -> None:
        """Ship the scenario + seeds to every worker.

        The scenario must cover the fleet's cells exactly — each worker
        derives the full (deterministic) demand table and materialises
        only its own columns, so the partition of work is exact and
        invariant under the worker count.
        """
        self._require_started()
        if set(scenario.cells) != set(self.cell_ids):
            raise ConfigurationError(
                f"scenario cells {sorted(scenario.cells)} must match the "
                f"fleet's cells {sorted(self.cell_ids)}"
            )
        message = {
            "type": "workload",
            "scenario": scenario_to_payload(scenario),
            "noise_var": float(noise_var),
            "channel_seed": scenario.seed if channel_seed is None else channel_seed,
            "data_seed": scenario.seed + 1 if data_seed is None else data_seed,
        }
        self._round(message, "workload")
        self._workload_message = message
        self._scenario = scenario

    def calibrate(self) -> float:
        """Fleet slot cost: the *slowest* worker's warm full-load slot."""
        self._require_started()
        if self._workload_message is None:
            raise ConfigurationError("install_workload must run before calibrate")
        replies = self._round({"type": "calibrate"}, "calibrate")
        return max(reply["slot_cost_s"] for reply in replies)

    # -- the run loop --------------------------------------------------
    def run(
        self,
        scenario: "WorkloadScenario | None" = None,
        noise_var: "float | None" = None,
        slot_interval_s: "float | None" = None,
        overload: float = 1.0,
    ) -> FleetReport:
        """Pace one scenario through the fleet, chunk by chunk.

        ``slot_interval_s=None`` calibrates first and paces at
        ``overload x`` the slowest worker's slot cost (the shared
        protocol of every governed-farm driver); ``0`` runs unpaced
        (throughput mode).  Pass ``scenario``/``noise_var`` to install
        a workload in the same call, or pre-install with
        :meth:`install_workload`.

        Each chunk is one :meth:`_round` of ``run_slots`` with the
        chunk's scripted kills; its ledgers are folded, then a governed
        fleet water-fills the global path budget from the workers'
        desires and installs the awards in one more round.  A
        ``kill_script`` entry naming a worker or chunk this run does not
        have is refused before anything is dispatched.
        """
        self._require_started()
        install = scenario is not None
        if install and noise_var is None:
            raise ConfigurationError("run(scenario=...) also needs noise_var")
        scenario = scenario if install else self._scenario
        if scenario is None:
            raise ConfigurationError(
                "no workload installed; pass scenario/noise_var or call "
                "install_workload first"
            )
        chunks = [
            (start, min(start + self.slots_per_chunk, scenario.slots))
            for start in range(0, scenario.slots, self.slots_per_chunk)
        ]
        stray = {
            worker: chunk
            for worker, chunk in self.kill_script.items()
            if worker not in range(len(self._handles)) or chunk not in range(len(chunks))
        }
        if stray:
            raise ConfigurationError(
                f"kill_script {stray} names a worker or chunk this run does not have "
                f"({len(self._handles)} workers, {len(chunks)} chunks)"
            )
        if install:
            self.install_workload(scenario, noise_var)
        if slot_interval_s is None:
            slot_interval_s = overload * self.calibrate()
        if not math.isfinite(slot_interval_s) or slot_interval_s < 0:
            raise ConfigurationError("slot_interval_s must be finite and >= 0")
        # This run's ledgers: fleet-wide and per worker.
        fleet = MetricsRegistry()
        per_worker = [MetricsRegistry() for _ in self._handles]
        started_at = time.monotonic()
        for chunk_index, (start, stop) in enumerate(chunks):
            message = {
                "type": "run_slots",
                "start": start,
                "stop": stop,
                "slot_interval_s": slot_interval_s,
            }
            timeout = self.reply_timeout_s + 2.0 * (stop - start) * slot_interval_s
            kill = [worker for worker, chunk in self.kill_script.items() if chunk == chunk_index]
            with self._tracer.span(SPAN_CHUNK, chunk=chunk_index, start=start, stop=stop):
                replies = self._round(message, f"run_slots[{start}:{stop})", timeout, kill)
            desires: "dict[str, int]" = {}
            floors: "dict[str, int]" = {}
            for handle, reply in zip(self._handles, replies):
                for ledger in (self.metrics, fleet, per_worker[handle.index]):
                    ledger.merge_dict(reply["metrics"])
                desires.update(reply.get("desired_budgets", {}))
                floors.update(reply.get("floors", {}))
                if reply.get("spans"):
                    # ``time.monotonic`` is CLOCK_MONOTONIC system-wide
                    # on Linux, so forked workers' timestamps land on
                    # the coordinator's timeline without translation.
                    self._tracer.extend(
                        reply["spans"], pid=WORKER_PID_BASE + handle.index
                    )
            if self._total_budget is not None and desires:
                # Water-fill the shared path pool across the whole fleet.
                self._last_awards = allocate_budget(
                    desires,
                    self._total_budget,
                    floors={cell: floors.get(cell, 0) for cell in desires},
                )
                self._round([self._budgets_message(h) for h in self._handles], "set_budgets")
        elapsed = time.monotonic() - started_at
        return FleetReport(
            workers=len(self._handles),
            slots=scenario.slots,
            slot_interval_s=slot_interval_s,
            frames_offered=scenario.offered_frames(),
            elapsed_s=elapsed,
            scheduler=scheduler_summary(fleet),
            per_worker=[scheduler_summary(ledger) for ledger in per_worker],
            cells=cell_summaries(self.metrics, self.cell_ids),
            budgets=dict(self._last_awards),
            restarts=list(self.restarts),
        )
