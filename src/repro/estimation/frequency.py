"""Throughput constraint → required clock frequency.

"Each of these configurations has to be able to achieve the 10 Gbps
ethernet throughput with a maximum size of 100 entries in the routing
table. Based on these constraints we calculated the minimum clock
frequencies" (§4): minimum clock = cycles-per-datagram × datagram rate.

The paper does not state its assumed datagram size. We calibrate once:
with a 290-byte average datagram, 10 Gbps is 4.31 M datagrams/s, which
places our measured worst-case cycle count for the sequential 1-bus
configuration at the paper's 6 GHz anchor. All other rows then follow
from measurement with no further degrees of freedom (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import EstimationError
from repro.routing.cam import CamPhysicalModel

LINE_RATE_BPS = 10e9
"""The 10 Gbps ethernet target of the paper."""

CALIBRATION_PACKET_BYTES = 290.0
"""Assumed mean datagram size; the single calibrated constant."""


def packet_rate(line_rate_bps: float = LINE_RATE_BPS,
                mean_packet_bytes: float = CALIBRATION_PACKET_BYTES) -> float:
    """Datagrams per second the router must sustain."""
    if line_rate_bps <= 0 or mean_packet_bytes <= 0:
        raise EstimationError("line rate and packet size must be positive")
    return line_rate_bps / (8.0 * mean_packet_bytes)


def required_clock_hz(cycles_per_packet: float,
                      line_rate_bps: float = LINE_RATE_BPS,
                      mean_packet_bytes: float = CALIBRATION_PACKET_BYTES) -> float:
    """Minimum clock sustaining the line rate at this cycles-per-packet."""
    if cycles_per_packet <= 0:
        raise EstimationError(
            f"cycles per packet must be positive: {cycles_per_packet}")
    return cycles_per_packet * packet_rate(line_rate_bps, mean_packet_bytes)


@dataclass(frozen=True)
class ThroughputConstraint:
    """A named line-rate constraint for sweeps and reports."""

    line_rate_bps: float = LINE_RATE_BPS
    mean_packet_bytes: float = CALIBRATION_PACKET_BYTES

    @property
    def packets_per_second(self) -> float:
        return packet_rate(self.line_rate_bps, self.mean_packet_bytes)

    def required_clock(self, cycles_per_packet: float) -> float:
        return required_clock_hz(cycles_per_packet, self.line_rate_bps,
                                 self.mean_packet_bytes)

    def describe(self) -> str:
        return (f"{self.line_rate_bps / 1e9:.0f} Gbps at "
                f"{self.mean_packet_bytes:.0f} B/datagram "
                f"({self.packets_per_second / 1e6:.2f} Mpps)")


#: rounds before a CAM latency fixed point is declared divergent (the
#: Table-1 rows converge in three, the lookup cost model in five)
MAX_FIXED_POINT_ROUNDS = 12


def cam_search_latency(cycles_at: Callable[[int], float]) -> int:
    """The CAM search latency, in cycles, that is consistent with itself.

    The CAM's search is a wall-clock constant, so it occupies more
    *cycles* at higher clocks, and more cycles raise the clock the line
    rate requires. Starting at latency 1, ask *cycles_at* for the
    cycles per datagram at a latency, derive the required clock, and
    move to the latency :meth:`CamPhysicalModel.search_cycles` gives at
    that clock until the two agree. *cycles_at* is called once per
    round; a latency that has not settled within
    :data:`MAX_FIXED_POINT_ROUNDS` raises :class:`EstimationError`.
    """
    cam = CamPhysicalModel()
    latency = 1
    for _ in range(MAX_FIXED_POINT_ROUNDS):
        needed = cam.search_cycles(required_clock_hz(cycles_at(latency)))
        if needed == latency:
            return latency
        latency = needed
    raise EstimationError(
        f"CAM latency fixed point did not converge within "
        f"{MAX_FIXED_POINT_ROUNDS} rounds (last latency {latency})")
