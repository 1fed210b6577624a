"""Processing-element abstractions and GPU/FPGA execution models.

Real hardware (the paper's GTX 970 and XCVU440) is replaced by analytic
models calibrated against the figures the paper itself publishes: with
neither device at hand, those figures are the only ground truth.
"""

from repro.parallel.fpga import (
    FPGA_DEVICE_XCVU440,
    FpgaDevice,
    FpgaEngineModel,
    RtlCostModel,
)
from repro.parallel.gpu import CpuOpenMpModel, GpuExecutionModel, GpuModelParams

__all__ = [
    "CpuOpenMpModel",
    "FPGA_DEVICE_XCVU440",
    "FpgaDevice",
    "FpgaEngineModel",
    "GpuExecutionModel",
    "GpuModelParams",
    "RtlCostModel",
]
