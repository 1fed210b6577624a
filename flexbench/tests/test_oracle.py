"""The oracle has teeth: a wrong answer is counted and fails the run."""

import numpy as np
import pytest

import flexbench.__main__ as cli
from flexbench import closed, fleet
from flexbench.inputs import (
    Expected,
    detector_spec,
    error_rates,
    make_blocks,
    mismatched_vectors,
    oracle,
)
from flexbench.spec import END_TO_END
from repro.api import BackendSpec, StackConfig

TINY = {"detector": ("flexcore", 2, 2, 4, {"num_paths": 4})}


def tiny_prepared(use_soft=False):
    spec = detector_spec(TINY)
    blocks, noise_var = make_blocks(
        spec.system(), 20.0, 4, 3, 2, np.random.default_rng(7)
    )
    answers = oracle(spec, blocks, noise_var, use_soft)
    return closed.Prepared(
        name="tiny",
        config=StackConfig(detector=spec, backend=BackendSpec("array")),
        blocks=blocks,
        noise_var=noise_var,
        answers=answers,
        use_soft=use_soft,
        quality=error_rates(spec.system(), blocks, answers),
    )


class CorruptingStack:
    """A stack whose every answer has one detected index flipped."""

    def __init__(self, stack):
        self.stack = stack

    def detect_batch(self, *args, **kwargs):
        result = self.stack.detect_batch(*args, **kwargs)
        result.indices[0, 0, 0] ^= 1
        return result


def test_the_real_stack_matches_the_oracle():
    prepared = tiny_prepared()
    stack, _ = closed.set_up(prepared)
    with stack:
        _, _, failed, attempted, _ = closed.timed_loop(stack, prepared, 0.05)
    assert attempted > 0 and failed == 0


def test_one_flipped_index_is_one_failed_vector_per_block():
    prepared = tiny_prepared()
    stack, _ = closed.set_up(prepared)
    with stack:
        durations, _, failed, attempted, _ = closed.timed_loop(
            CorruptingStack(stack), prepared, 0.05
        )
    assert failed == len(durations)
    assert 0 < failed / attempted < 1


def test_a_wrong_llr_fails_even_when_the_indices_agree():
    expected = Expected(np.zeros((2, 3, 2), dtype=np.int64), np.ones((2, 3, 4)))
    llrs = expected.llrs.copy()
    assert mismatched_vectors(expected.indices, llrs, expected) == 0
    llrs[1, 2, 3] = -1.0
    assert mismatched_vectors(expected.indices, llrs, expected) == 1
    assert mismatched_vectors(expected.indices, None, expected) == 6


class Report:
    """The public fields of a FleetReport the conservation check reads."""

    def __init__(self, detected, cells, restarts=()):
        self.frames_offered = 224
        self.frames_detected = detected
        self.scheduler = {
            "frames_shed": 0,
            "frames_missing": self.frames_offered - detected,
        }
        self.cells = {cell: {"frames": count} for cell, count in cells.items()}
        self.restarts = list(restarts)


def test_a_dropped_fleet_frame_breaks_conservation():
    reference = {"cell0": 112, "cell1": 112}
    assert fleet.failed_frames(Report(224, reference), {}, reference) == 0
    short = {"cell0": 112, "cell1": 111}
    assert fleet.failed_frames(Report(223, short), {}, reference) > 0
    # Running totals: the second run's per-cell count is a difference.
    doubled = {cell: 2 * count for cell, count in reference.items()}
    assert fleet.failed_frames(Report(224, doubled), reference, reference) == 0
    assert fleet.failed_frames(Report(224, reference, ["died"]), {}, reference) == 224


@pytest.mark.parametrize("failed, code", [(0, 0), (1, 1)])
def test_the_command_exits_non_zero_on_a_failed_operation(
    monkeypatch, capsys, failed, code
):
    def stubbed(workload, seed, seconds, trace):
        return {
            "attempted": 448,
            "failed": failed,
            "samples": 1,
            "metrics": {name: 1.0 for name in END_TO_END},
        }

    monkeypatch.setattr(cli, "run_one", stubbed)
    argv = ["--workload", "warm_walk", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert cli.main(argv) == code
    assert f'"failed": {failed}' in capsys.readouterr().out.splitlines()[-1]
