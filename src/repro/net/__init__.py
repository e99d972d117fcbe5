"""Network substrate: topology, latency, loss, jitter, elasticity, events."""

from .elasticity import ElasticityModel, ElasticityParams
from .events import EventSchedule, FiberCut, TransitCongestion, TransitSelector
from .jitter import JitterModel, JitterModelParams
from .latency import (
    INTERNET,
    REGION_PEERING,
    ROUTING_OPTIONS,
    WAN,
    LatencyModel,
    LatencyModelParams,
    default_richness_calibration,
)
from .loss import SLOTS_PER_DAY, SLOTS_PER_HOUR, SLOTS_PER_WEEK, LossModel, LossModelParams
from .topology import WanLink, WanTopology, dc_node, pop_node

__all__ = [
    "ElasticityModel",
    "ElasticityParams",
    "EventSchedule",
    "FiberCut",
    "TransitCongestion",
    "TransitSelector",
    "JitterModel",
    "JitterModelParams",
    "INTERNET",
    "REGION_PEERING",
    "ROUTING_OPTIONS",
    "WAN",
    "LatencyModel",
    "LatencyModelParams",
    "default_richness_calibration",
    "SLOTS_PER_DAY",
    "SLOTS_PER_HOUR",
    "SLOTS_PER_WEEK",
    "LossModel",
    "LossModelParams",
    "WanLink",
    "WanTopology",
    "dc_node",
    "pop_node",
]
