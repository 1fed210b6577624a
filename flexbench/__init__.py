"""flexbench: the repository's one benchmark.

Five seeded workloads drive the FlexCore serving stack through its
public surface only (``repro.api.build_stack`` / ``UplinkStack``,
``stack.farm.scheduler()`` + ``FrameArrival``, ``repro.farm
.FarmCoordinator``), check every output against an oracle, and report
end-to-end metrics (untraced) and a per-layer ledger (traced).  The
metric and workload names are frozen in ``BENCHMARK.json`` at the
repository root; ``flexbench/README.md`` explains each of them.

Importing this package imports nothing heavy: ``python -m flexbench``
pins the BLAS thread count *before* numpy is first imported.
"""
