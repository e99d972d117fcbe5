"""Telemetry substrate: the MOS model behind Fig 11 and Titan's quality gates."""

from .mos import MosModel, MosModelParams

__all__ = [
    "MosModel",
    "MosModelParams",
]
