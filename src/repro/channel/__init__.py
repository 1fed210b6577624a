"""Channel models: Rayleigh fading, the indoor testbed, traces."""

from repro.channel.fading import rayleigh_channel, rayleigh_channels
from repro.channel.testbed import IndoorTestbed, TestbedGeometry
from repro.channel.traces import ChannelTrace, combine_user_traces

__all__ = [
    "ChannelTrace",
    "IndoorTestbed",
    "TestbedGeometry",
    "combine_user_traces",
    "rayleigh_channel",
    "rayleigh_channels",
]
