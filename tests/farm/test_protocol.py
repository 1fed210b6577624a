"""The farm wire protocol, checked without spawning a process.

The table is the protocol: ``REPLY_FOR`` pairs every command with its
reply, the worker serves exactly those commands, and ``send`` refuses a
frame the protocol cannot carry before a byte reaches the pipe.
"""

from __future__ import annotations

import json
from multiprocessing import Pipe

import numpy as np
import pytest

from repro.control.workload import SCENARIOS, WorkloadScenario
from repro.errors import ConfigurationError
from repro.farm.protocol import (
    REPLY_FOR,
    scenario_from_payload,
    scenario_to_payload,
    send,
)
from repro.farm.worker import HANDLERS


@pytest.mark.parametrize("kind", SCENARIOS)
def test_every_scenario_survives_json(kind):
    scenario = WorkloadScenario(
        kind, ("cell0", "cell1"), slots=3, subcarriers=2, seed=5
    )
    payload = json.loads(json.dumps(scenario_to_payload(scenario)))
    assert scenario_from_payload(payload) == scenario


def test_worker_serves_exactly_the_table():
    assert set(HANDLERS) | {"stop"} == set(REPLY_FOR)


@pytest.mark.parametrize(
    "message",
    [{"type": "pong", "cells": np.int64(1)}, {"type": "pnog"}],
    ids=["numpy-value", "unknown-type"],
)
def test_send_refuses_what_the_wire_cannot_carry(message):
    ours, theirs = Pipe()
    with ours, theirs:
        with pytest.raises(ConfigurationError):
            send(ours, message)
        assert not theirs.poll()
