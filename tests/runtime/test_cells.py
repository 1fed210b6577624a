"""Tests for multi-cell sharding: CellFarm, fair-share dispatch,
per-cell cache isolation, and the streaming batch adapter."""

import asyncio
import math

import numpy as np
import pytest

from repro.channel.fading import rayleigh_channels
from repro.errors import ConfigurationError
from repro.flexcore.detector import FlexCoreDetector
from repro.link.channels import rayleigh_sampler
from repro.link.config import LinkConfig
from repro.link.simulation import simulate_link
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.runtime import (
    CacheStats,
    Cell,
    CellFarm,
    FrameArrival,
)
from tests.conftest import make_stack


@pytest.fixture
def system():
    return MimoSystem(3, 3, QamConstellation(16))


@pytest.fixture
def detector(system):
    return FlexCoreDetector(system, num_paths=8)


class TestCellRegistry:
    def test_register_and_lookup(self, detector):
        farm = CellFarm()
        cell = farm.add_cell("east", detector)
        assert farm["east"] is cell
        assert len(farm) == 1
        assert list(farm) == [cell]

    def test_duplicate_id_rejected(self, detector):
        farm = CellFarm()
        farm.add_cell("east", detector)
        with pytest.raises(ConfigurationError, match="already registered"):
            farm.add_cell("east", detector)

    def test_cell_requires_detector(self):
        with pytest.raises(ConfigurationError, match="Detector"):
            Cell("east", object())

    def test_cells_share_one_service(self, system):
        farm = CellFarm()
        a = farm.add_cell("a", FlexCoreDetector(system, num_paths=4))
        b = farm.add_cell("b", FlexCoreDetector(system, num_paths=8))
        scheduler = farm.scheduler()
        assert scheduler.service is farm.service
        assert a.cache is not b.cache


class TestPerCellCacheIsolation:
    def test_same_channel_prepared_once_per_cell(self, system, rng):
        """Cells never share contexts — cell A's hit is not cell B's."""
        detector = FlexCoreDetector(system, num_paths=8)
        channel = rayleigh_channels(1, 3, 3, rng)[0]
        farm = CellFarm()
        farm.add_cell("a", detector)
        farm.add_cell("b", detector)

        async def run():
            async with farm.scheduler(
                batch_target=1, slot_budget_s=math.inf
            ) as scheduler:
                for cell_id in ("a", "b", "a", "b"):
                    future = await scheduler.submit(
                        FrameArrival(
                            channel,
                            np.zeros(3, dtype=complex),
                            0.1,
                            cell=cell_id,
                        )
                    )
                    await future

        asyncio.run(run())
        for cell_id in ("a", "b"):
            stats = farm[cell_id].cache_stats
            assert stats == CacheStats(
                hits=1, misses=1, evictions=0, entries=1
            )
            # The farm's ledger view agrees with the store's snapshot.
            assert farm.stats()[cell_id]["cache"] == stats.as_dict()

    def test_one_cells_churn_cannot_evict_neighbour(self, system, rng):
        detector = FlexCoreDetector(system, num_paths=8)
        farm = CellFarm()
        farm.add_cell("busy", detector, max_cache_entries=2)
        farm.add_cell("quiet", detector, max_cache_entries=2)
        quiet_channel = rayleigh_channels(1, 3, 3, rng)[0]
        churn = rayleigh_channels(6, 3, 3, rng)

        async def run():
            async with farm.scheduler(
                batch_target=1, slot_budget_s=math.inf
            ) as scheduler:
                await (
                    await scheduler.submit(
                        FrameArrival(
                            quiet_channel,
                            np.zeros(3, dtype=complex),
                            0.1,
                            cell="quiet",
                        )
                    )
                )
                for channel in churn:
                    await (
                        await scheduler.submit(
                            FrameArrival(
                                channel,
                                np.zeros(3, dtype=complex),
                                0.1,
                                cell="busy",
                            )
                        )
                    )
                # The quiet cell's context survived the busy cell's churn.
                await (
                    await scheduler.submit(
                        FrameArrival(
                            quiet_channel,
                            np.zeros(3, dtype=complex),
                            0.1,
                            cell="quiet",
                        )
                    )
                )

        asyncio.run(run())
        assert farm["quiet"].cache_stats.hits == 1
        assert farm["busy"].cache_stats.evictions == 4
        assert farm["quiet"].cache_stats.evictions == 0


class TestFairShareDispatch:
    def test_rotation_across_dispatch_cycles(self, system, rng):
        """The cell served first rotates between flush cycles."""
        detector = FlexCoreDetector(system, num_paths=4)
        farm = CellFarm()
        for cell_id in ("a", "b"):
            farm.add_cell(cell_id, detector)
        channel = rayleigh_channels(1, 3, 3, rng)[0]

        async def one_cycle(scheduler):
            futures = [
                await scheduler.submit(
                    FrameArrival(
                        channel,
                        np.zeros(3, dtype=complex),
                        0.1,
                        cell=cell_id,
                    )
                )
                for cell_id in ("a", "b")
            ]
            await scheduler.flush()
            flushes = [d.flush for d in await asyncio.gather(*futures)]
            return [r.cell for r in sorted(flushes, key=lambda r: r.flushed_s)]

        async def run():
            async with farm.scheduler(
                batch_target=10, slot_budget_s=math.inf
            ) as scheduler:
                return await one_cycle(scheduler) + await one_cycle(scheduler)

        order = asyncio.run(run())
        assert order[:2] in (["a", "b"], ["b", "a"])
        # Second cycle starts from the other cell.
        assert order[2] != order[0]


class TestStreamingUplinkEngine:
    def test_requires_at_least_one_cell(self, detector):
        with pytest.raises(ConfigurationError):
            make_stack(detector, cells=0)

    def test_simulate_link_matches_batch_engine(self, system):
        """End-to-end: a coded link over the streaming farm is seeded-
        identical to the batch engine run."""
        detector = FlexCoreDetector(system, num_paths=8)
        config = LinkConfig(
            system=system, ofdm_symbols_per_packet=2, num_subcarriers=6
        )
        reference = simulate_link(
            config, detector, 14.0, 2, rayleigh_sampler(config), rng=4
        )
        with make_stack(detector, cells=2) as engine:
            streamed = simulate_link(
                config,
                detector,
                14.0,
                2,
                rayleigh_sampler(config),
                rng=4,
                engine=engine,
            )
        assert streamed.per == reference.per
        assert streamed.bit_errors == reference.bit_errors
        assert streamed.vector_errors == reference.vector_errors

    def test_caches_persist_across_batches(self, system, rng):
        detector = FlexCoreDetector(system, num_paths=8)
        channels = rayleigh_channels(4, 3, 3, rng)
        received = rng.standard_normal((4, 2, 3)) + 0j
        with make_stack(detector, cells=2) as engine:
            first = engine.detect_batch(channels, received, 0.05)
            second = engine.detect_batch(channels, received, 0.05)
        assert sum(d.misses for d in first.stats["cache"].values()) == 4
        assert sum(d.misses for d in second.stats["cache"].values()) == 0
        assert sum(d.hits for d in second.stats["cache"].values()) == 4
        assert np.array_equal(first.indices, second.indices)

    def test_clear_cache_clears_every_cell(self, system, rng):
        detector = FlexCoreDetector(system, num_paths=8)
        channels = rayleigh_channels(4, 3, 3, rng)
        received = rng.standard_normal((4, 2, 3)) + 0j
        with make_stack(detector, cells=2) as engine:
            engine.detect_batch(channels, received, 0.05)
            engine.clear_cache()
            replay = engine.detect_batch(channels, received, 0.05)
        assert sum(d.misses for d in replay.stats["cache"].values()) == 4

    def test_per_cell_stats_exposed(self, system, rng):
        detector = FlexCoreDetector(system, num_paths=8)
        channels = rayleigh_channels(4, 3, 3, rng)
        received = rng.standard_normal((4, 2, 3)) + 0j
        with make_stack(detector, cells=2) as engine:
            result = engine.detect_batch(channels, received, 0.05)
            cell_stats = engine.farm.stats()
        assert set(result.stats["cache"]) == {"cell0", "cell1"}
        assert sum(s["frames"] for s in cell_stats.values()) == 4 * 2
        assert all(s["deadline_hit_rate"] == 1.0 for s in cell_stats.values())
