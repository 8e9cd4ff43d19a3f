"""Memory substrate: the main-memory controller behind the L3 responder."""

from .memory import MemoryController, MemoryStats

__all__ = [
    "MemoryController",
    "MemoryStats",
]
