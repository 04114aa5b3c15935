"""leoqsim: LEO constellation network simulator.

QoS packet scheduling (strict priority over weighted round-robin), per-slot
shortest-path routing, and congestion-triggered backup-path detours for
non-real-time traffic, with per-class loss/delay/throughput/hop statistics.
"""

__version__ = "0.1.0"

from .constellation import ConstellationParams, GeoPosition

__all__ = ["ConstellationParams", "GeoPosition", "__version__"]
