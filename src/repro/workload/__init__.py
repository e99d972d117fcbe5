"""Call-workload substrate: media, configs, demand, and traces."""

from .configs import CallConfig
from .demand import (
    INTRA_COUNTRY_FRACTION,
    MEDIA_MIX,
    SLOTS_PER_DAY,
    SLOTS_PER_WEEK,
    ConfigDemand,
    ConfigUniverse,
    DemandModel,
    diurnal_factor,
    weekday_factor,
)
from .media import (
    AUDIO,
    MEDIA_PROFILES,
    MEDIA_TYPES,
    SCREENSHARE,
    VIDEO,
    MediaProfile,
    dominant_media,
    media_rank,
    participant_bandwidth_gbps,
    participant_compute_cores,
    profile,
)
from .traces import Call, CallTable, TraceGenerator

__all__ = [
    "CallConfig",
    "INTRA_COUNTRY_FRACTION",
    "MEDIA_MIX",
    "SLOTS_PER_DAY",
    "SLOTS_PER_WEEK",
    "ConfigDemand",
    "ConfigUniverse",
    "DemandModel",
    "diurnal_factor",
    "weekday_factor",
    "AUDIO",
    "MEDIA_PROFILES",
    "MEDIA_TYPES",
    "SCREENSHARE",
    "VIDEO",
    "MediaProfile",
    "dominant_media",
    "media_rank",
    "participant_bandwidth_gbps",
    "participant_compute_cores",
    "profile",
    "Call",
    "CallTable",
    "TraceGenerator",
]
