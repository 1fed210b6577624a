"""The coordinator <-> worker wire protocol of the multi-process farm.

Every message is a ``{"type": ..., ...}`` dict, and it crosses the pipe
as JSON by construction: :func:`send` and :func:`recv` are the only code
that touches a farm pipe, and :func:`send` refuses — before writing a
byte — a message whose ``type`` is not in the protocol or whose values
``json.dumps`` rejects (a numpy scalar, a set, bytes).  The same frames
could therefore ride a socket to another host without changing shape
(the RaPro / decentralized-baseband direction in PAPERS.md).  The stack
a worker runs is **not** shipped as live objects: the worker receives
the serialized ``StackConfig`` slice and rebuilds everything with
:func:`repro.api.build_stack` — which is exactly what makes the config
the recovery plan when a worker has to be re-spawned.

The whole protocol is :data:`REPLY_FOR` plus two unpaired messages.
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

Worker -> coordinator: the reply :data:`REPLY_FOR` names for each
command, plus ``ready`` (the spawn handshake, lists the cells served)
and ``error`` (an exception escaped — the payload carries its repr and
traceback; deterministic errors are *not* retried by re-spawning),
neither of which answers a command.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.control.workload import WorkloadScenario
from repro.errors import ConfigurationError

#: Command -> the reply that acknowledges it.
REPLY_FOR = {
    "workload": "workload_set",
    "run_slots": "slots_done",
    "set_budgets": "budgets_set",
    "calibrate": "calibrated",
    "ping": "pong",
    "stop": "stopped",
}

#: Every message type :func:`send` accepts.
_TYPES = {*REPLY_FOR, *REPLY_FOR.values(), "ready", "error"}


def send(conn, message: dict) -> None:
    """Write one message to a farm pipe as a JSON frame.

    Raises :class:`~repro.errors.ConfigurationError`, having written
    nothing, when ``message["type"]`` is not in the protocol or a value
    is not JSON-serializable.
    """
    kind = message.get("type")
    if kind not in _TYPES:
        raise ConfigurationError(f"unknown farm message type {kind!r}")
    try:
        frame = json.dumps(message).encode()
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"farm message {kind!r} is not JSON-serializable: {error}"
        ) from None
    conn.send_bytes(frame)


def recv(conn) -> dict:
    """Read one message from a farm pipe (``ValueError`` if not JSON)."""
    return json.loads(conn.recv_bytes())


def scenario_to_payload(scenario: WorkloadScenario) -> dict:
    """A :class:`WorkloadScenario` as a JSON-serializable dict."""
    return asdict(scenario)


def scenario_from_payload(payload: dict) -> WorkloadScenario:
    """Rebuild the scenario a :func:`scenario_to_payload` dict names."""
    return WorkloadScenario(**payload)
