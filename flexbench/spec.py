"""The frozen description of the benchmark: names, shapes, rates.

``BENCHMARK.json`` is the only list of metric and workload names; this
module reads it, and adds what the contract's fixed key set has no room
for — the workload shapes and the paced arrival rates.  Everything here
is a constant: no value is derived from a timing taken at run time.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Seconds one run measures (the contract's ``run_seconds``).
RUN_S = int(BENCHMARK["run_seconds"])
WORKLOADS = tuple(entry["name"] for entry in BENCHMARK["workloads"])
END_TO_END = {entry["name"]: entry for entry in BENCHMARK["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in BENCHMARK["per_layer"]}

def setup_repeats(seconds: float) -> int:
    """Set-ups per run; ``setup_s`` is their median (plus the one
    import).  A run too short to measure anything sets up once."""
    return 3 if seconds >= 4 else 1

# -- closed loops: one caller, next block only after the last returned --
#: ``detector`` is a DetectorSpec argument tuple; ``blocks`` distinct
#: channel blocks are cycled, so ``blocks * subcarriers`` against the
#: 1024-entry context cache decides hit (<=) or miss-every-time (2x).
CLOSED_LOOPS = {
    "warm_walk": {
        "detector": ("flexcore", 12, 12, 64, {"num_paths": 128}),
        "subcarriers": 64,
        "symbols": 7,
        "snr_db": 22.0,
        "blocks": 8,
        "use_soft": False,
    },
    "cold_mobility": {
        "detector": ("flexcore", 8, 8, 16, {"num_paths": 64}),
        "subcarriers": 64,
        "symbols": 2,
        "snr_db": 20.0,
        "blocks": 32,
        "use_soft": False,
    },
    "soft_llr": {
        # The "array-soft" preset: 8x8 16-QAM soft-FlexCore, 32 paths.
        "preset": "array-soft",
        "subcarriers": 64,
        "symbols": 7,
        "snr_db": 20.0,
        "blocks": 8,
        "use_soft": True,
    },
}

# -- paced_farm: open loop, fixed absolute slot rates --------------------
PACED = {
    "detector": ("flexcore", 8, 8, 16, {"num_paths": 64}),
    "cells": 2,
    "subcarriers": 8,
    "snr_db": 20.0,
    #: Distinct pre-generated slots, cycled by every phase.
    "pool_slots": 64,
    #: Slots queued at once in the drain phase (coalesced per cell).
    "drain_backlog": 4,
    #: Slots per second.  Frozen on the builder's 2-core box, where one
    #: slot at a time is served in ~14 ms (~70 slots/s), so r25 is ~35 %
    #: utilisation, r40 ~57 %, r55 ~78 % and r90 is above saturation.
    #: Never calibrated at run time.
    "rates": {"r25": 25.0, "r40": 40.0, "r55": 55.0, "r90": 90.0},
    #: Share of the run each phase takes: drain, then the three fixed
    #: rates ungoverned, then r90 with the AIMD governor attached.
    "phase_share": {
        "drain": 0.22,
        "r25": 0.33,
        "r40": 0.22,
        "r55": 0.13,
        "r90": 0.10,
    },
    #: The rate the end-to-end latency comes from.  Not r40: at ~57 %
    #: utilisation a shared box's slow minutes push the queue towards
    #: saturation and p90 swings several-fold from run to run; at r25 the
    #: same minutes move it by their own size.
    "nominal": "r25",
    #: The rate the scheduler's ledger is read at: loaded enough that
    #: queue wait is a visible share, report-only so its swings are free.
    "loaded": "r40",
    "governed": "r90",
}

# -- fleet_2w: two supervised worker processes, unpaced ------------------
FLEET = {
    "detector": ("flexcore", 8, 8, 16, {"num_paths": 64}),
    "workers": 2,
    "cells": 4,
    "subcarriers": 8,
    "snr_db": 20.0,
    "slots_per_chunk": 8,
}
