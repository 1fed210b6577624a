"""One farm worker process: a StackConfig slice served over a pipe.

The entry point :func:`worker_main` is what
:class:`~repro.farm.coordinator.FarmCoordinator` spawns (and re-spawns —
the serialized config slice is the whole recovery plan): it rebuilds its
share of the farm with :func:`repro.api.build_stack`, regenerates its
cells' channels deterministically from the workload seeds, and then
serves :mod:`repro.farm.protocol` commands until told to stop: every
frame is read with ``protocol.recv`` and written with ``protocol.send``
(JSON), each command is served by its :data:`HANDLERS` entry, and the
reply type is the one ``REPLY_FOR`` pairs with the command.  All
state a worker holds — caches, governor lanes — is reconstructible from
the config plus the seeds, and it keeps no accounting the coordinator
needs: every ``slots_done`` reply carries that chunk's own complete
ledger, which is why a killed worker can be replaced mid-scenario
without corrupting the run or its counts.
"""

from __future__ import annotations

import traceback
from dataclasses import replace

import numpy as np

from repro.api import StackConfig, build_stack
from repro.channel.fading import rayleigh_channels
from repro.control.workload import slot_arrivals
from repro.errors import ConfigurationError
from repro.farm.protocol import REPLY_FOR, recv, scenario_from_payload, send
from repro.obs import clear_global


class _WorkerState:
    """Everything one worker serves: the stack plus the workload."""

    def __init__(self, config: StackConfig):
        self.stack = build_stack(config)
        self.cell_ids = list(config.farm.cell_ids())
        self.cell_offset = config.farm.cell_offset
        self.system = self.stack.detector.system
        self.scenario = None
        self.demand = None
        self.noise_var = None
        self.channel_seed = None
        self.data_seed = None
        self.channels = None

    # ------------------------------------------------------------------
    def set_workload(self, message: dict) -> dict:
        scenario = scenario_from_payload(message["scenario"])
        missing = sorted(set(self.cell_ids) - set(scenario.cells))
        if missing:
            raise ConfigurationError(
                f"scenario does not cover this worker's cells {missing}"
            )
        self.scenario = scenario
        # The full table is deterministic in the scenario seed, so every
        # worker derives the same one and materialises only its slice.
        self.demand = scenario.demand()
        self.noise_var = float(message["noise_var"])
        self.channel_seed = int(message["channel_seed"])
        self.data_seed = int(message["data_seed"])
        self.channels = {
            cell_id: rayleigh_channels(
                scenario.subcarriers,
                self.system.num_rx_antennas,
                self.system.num_streams,
                # Seeded per *global* cell index: a re-spawned worker
                # regenerates identical channels, and no two cells of
                # the fleet share a draw.
                np.random.default_rng(
                    [self.channel_seed, self.cell_offset + index]
                ),
            )
            for index, cell_id in enumerate(self.cell_ids)
        }
        return {"cells": self.cell_ids}

    def _require_workload(self) -> None:
        if self.scenario is None:
            raise ConfigurationError(
                "no workload installed (send a 'workload' message first)"
            )

    # ------------------------------------------------------------------
    def calibrate(self, message: dict) -> dict:
        """Warm wall-clock cost of this worker's share of a full slot."""
        self._require_workload()
        cost = self.stack.calibrate_slot_cost(
            replace(self.scenario, cells=tuple(self.cell_ids)),
            self.channels,
            self.noise_var,
        )
        return {"slot_cost_s": cost}

    def run_slots(self, message: dict) -> dict:
        """Pace slots ``[start, stop)`` of the demand table; own cells only.

        ``slot_interval_s == 0`` runs the slots back-to-back (throughput
        mode, deadline telemetry quiet), a positive interval is the
        real-time contract (see :meth:`repro.api.UplinkStack.pace`).
        """
        self._require_workload()
        start, stop = int(message["start"]), int(message["stop"])
        if not 0 <= start <= stop <= self.scenario.slots:
            raise ConfigurationError(
                f"slot range [{start}, {stop}) outside the scenario's "
                f"{self.scenario.slots} slots"
            )
        _, telemetry = self.stack.pace(
            (self._slot_arrivals(slot) for slot in range(start, stop)),
            float(message["slot_interval_s"]),
        )
        reply = {
            "start": start,
            "stop": stop,
            # This chunk's scheduler ledger, complete in itself: a
            # replayed chunk cannot be counted twice, and calibration
            # passes (other schedulers) are not in it.
            "metrics": telemetry.metrics.to_dict(),
        }
        governor = self.stack.governor
        if governor is not None:
            reply["desired_budgets"] = governor.desired_budgets(
                self.cell_ids
            )
            reply["floors"] = governor.floor_budgets(self.cell_ids)
        obs = self.stack.obs
        if obs is not None:
            # Drain, don't snapshot: each chunk reply carries only the
            # spans recorded since the previous one.
            reply["spans"] = obs.tracer.drain()
        return reply

    def _slot_arrivals(self, slot: int) -> list:
        """This worker's arrivals of one slot of the demand table."""
        row = {
            cell_id: self.demand[slot][cell_id] for cell_id in self.cell_ids
        }
        # Seeded per (slot, worker slice): a replayed chunk regenerates
        # the identical frames it lost.
        rng = np.random.default_rng([self.data_seed, slot, self.cell_offset])
        return slot_arrivals(
            row, self.channels, self.system, self.noise_var, rng
        )

    # ------------------------------------------------------------------
    def set_budgets(self, message: dict) -> dict:
        governor = self.stack.governor
        if governor is not None:
            governor.install_budgets(message["budgets"])
        return {}

    def ping(self, message: dict) -> dict:
        """Health check: the reply names the cells this worker serves."""
        return {"cells": self.cell_ids}

    def close(self) -> None:
        self.stack.close()


#: Command -> the handler that serves it.  A handler returns its reply's
#: payload; the serve loop stamps ``REPLY_FOR[command]`` on it.  ``stop``
#: is the serve loop's own.
HANDLERS = {
    "workload": _WorkerState.set_workload,
    "run_slots": _WorkerState.run_slots,
    "set_budgets": _WorkerState.set_budgets,
    "calibrate": _WorkerState.calibrate,
    "ping": _WorkerState.ping,
}


def worker_main(conn, config_payload: dict) -> None:
    """Serve one farm slice over ``conn`` until ``stop`` (or EOF).

    ``config_payload`` is a serialized :class:`~repro.api.StackConfig`
    (``to_dict`` form) — the coordinator ships configuration, never live
    objects, so this entry point works identically for a first spawn
    and for a recovery re-spawn.
    """
    state = None
    try:
        # A forked worker inherits the parent's process-global
        # observability hub; recording into it here would interleave
        # worker spans into a buffer nobody exports.  Workers trace
        # through their own hub (config.tracing) and ship spans back in
        # each slots_done reply instead.
        clear_global()
        state = _WorkerState(StackConfig.from_dict(config_payload))
        send(conn, {"type": "ready", "cells": state.cell_ids})
        while True:
            message = recv(conn)
            kind = message.get("type")
            if kind == "stop":
                send(conn, {"type": REPLY_FOR[kind]})
                return
            if kind not in HANDLERS:
                raise ConfigurationError(f"unknown command {kind!r}")
            reply = HANDLERS[kind](state, message)
            reply["type"] = REPLY_FOR[kind]
            send(conn, reply)
    except EOFError:
        pass  # the coordinator went away; nothing to report to
    except Exception as error:
        try:
            send(
                conn,
                {
                    "type": "error",
                    "error": repr(error),
                    "traceback": traceback.format_exc(),
                },
            )
        except OSError:
            pass
    finally:
        if state is not None:
            state.close()
