"""The coordinator <-> worker wire protocol of the multi-process farm.

Every message is a plain ``{"type": ..., ...}`` dict of JSON-native
values — the same design rule as :class:`repro.api.StackConfig` — so the
protocol that today rides a :class:`multiprocessing.Pipe` could ride a
socket to another host without changing shape (the RaPro / decentralized
-baseband direction in PAPERS.md).  The stack a worker runs is **not**
shipped as live objects: the worker receives the serialized
``StackConfig`` slice and rebuilds everything with
:func:`repro.api.build_stack` — which is exactly what makes the config
the recovery plan when a worker has to be re-spawned.

Coordinator -> worker commands:

``workload``
    Install a scenario: the :class:`~repro.control.workload
    .WorkloadScenario` payload, noise variance and channel/data seeds.
    The worker derives the *full* demand table (deterministic in the
    seed) and materialises only its own cells, so the work partition is
    exact and invariant under the worker count.
``run_slots``
    Pace slots ``[start, stop)`` of the installed scenario through the
    worker's stack; reply is ``slots_done`` with ``start`` / ``stop``,
    ``metrics`` — the chunk's own scheduler ledger as a
    :meth:`~repro.obs.MetricsRegistry.to_dict` payload, always present
    and complete in itself (not a delta against anything the worker
    keeps), which is the only accounting that crosses the pipe and what
    the coordinator folds with ``merge_dict`` — and, on a governed
    slice, the governor's ``desired_budgets`` / ``floors``.  When the
    worker's config slice enables tracing, the reply additionally
    carries ``spans`` (the chunk's drained Chrome-trace events) for the
    fleet-wide timeline.
``set_budgets``
    Install globally-awarded per-cell path budgets
    (:meth:`~repro.control.governor.ComputeGovernor.install_budgets`).
``calibrate``
    One cold + one warm peak-demand pass; reply carries the warm
    wall-clock cost of the worker's share of a full slot.
``ping`` / ``stop``
    Health check and orderly shutdown.

Worker -> coordinator replies: ``ready`` (spawn handshake, lists the
cells served), ``workload_set``, ``slots_done``, ``budgets_set``,
``calibrated``, ``pong``, ``stopped``, and ``error`` (an exception
escaped — the payload carries its repr; deterministic errors are *not*
retried by re-spawning).
"""

from __future__ import annotations

from dataclasses import asdict

from repro.control.workload import WorkloadScenario

# Coordinator -> worker.
MSG_WORKLOAD = "workload"
MSG_RUN = "run_slots"
MSG_BUDGETS = "set_budgets"
MSG_CALIBRATE = "calibrate"
MSG_PING = "ping"
MSG_STOP = "stop"

# Worker -> coordinator.
MSG_READY = "ready"
MSG_WORKLOAD_SET = "workload_set"
MSG_DONE = "slots_done"
MSG_BUDGETS_SET = "budgets_set"
MSG_CALIBRATED = "calibrated"
MSG_PONG = "pong"
MSG_STOPPED = "stopped"
MSG_ERROR = "error"

#: Replies the coordinator treats as request acknowledgements, keyed by
#: the command that elicits them.
REPLY_FOR = {
    MSG_WORKLOAD: MSG_WORKLOAD_SET,
    MSG_RUN: MSG_DONE,
    MSG_BUDGETS: MSG_BUDGETS_SET,
    MSG_CALIBRATE: MSG_CALIBRATED,
    MSG_PING: MSG_PONG,
    MSG_STOP: MSG_STOPPED,
}

#: Messages that are deliberately *not* a command/ack pair: the spawn
#: handshake the worker volunteers before any command arrives, and the
#: error report that can replace any expected reply.  Every ``MSG_*``
#: must appear in :data:`REPLY_FOR` (either side) or here — enforced by
#: the REP004 static-analysis rule.
UNPAIRED_MESSAGES = (MSG_READY, MSG_ERROR)


def scenario_to_payload(scenario: WorkloadScenario) -> dict:
    """A :class:`WorkloadScenario` as a JSON-native dict."""
    payload = asdict(scenario)
    payload["cells"] = list(payload["cells"])
    return payload


def scenario_from_payload(payload: dict) -> WorkloadScenario:
    """Rebuild the scenario a :func:`scenario_to_payload` dict names."""
    return WorkloadScenario(**payload)
