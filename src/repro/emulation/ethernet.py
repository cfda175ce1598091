"""The FPGA-to-host Ethernet statistics link.

The paper streams statistics as MAC packets in a custom format over a
standard Ethernet port and freezes the platform's virtual clocks when
the connection saturates (Section 4.2).  We model the link as a
bandwidth/latency pipe with per-frame overhead; the dispatcher asks it
how long a window's worth of frames takes to drain and converts any
excess over the real window duration into VPCM freeze time.
"""

from dataclasses import dataclass

ETHERNET_100_MBIT = 100e6
MAC_FRAME_OVERHEAD_BYTES = 38  # preamble + header + FCS + interframe gap
MAC_MAX_PAYLOAD_BYTES = 1500


@dataclass
class EthernetLink:
    """A full-duplex Ethernet pipe between the FPGA and the host PC."""

    bandwidth_bps: float = ETHERNET_100_MBIT
    latency_s: float = 50e-6  # propagation + host stack turnaround

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bytes_sent = 0
        self.frames_sent = 0

    def frame_count(self, payload_bytes):
        """MAC frames needed for a payload (1500-byte maximum units)."""
        if payload_bytes <= 0:
            return 0
        return -(-payload_bytes // MAC_MAX_PAYLOAD_BYTES)

    def wire_bytes(self, payload_bytes):
        """Payload plus per-frame MAC overhead."""
        return payload_bytes + self.frame_count(payload_bytes) * MAC_FRAME_OVERHEAD_BYTES

    def transfer_time(self, payload_bytes):
        """Seconds to push a payload down the wire (one direction)."""
        if payload_bytes <= 0:
            return 0.0
        return self.wire_bytes(payload_bytes) * 8.0 / self.bandwidth_bps

    def send(self, payload_bytes):
        """Count a transfer's bytes and MAC frames (its duration is
        :meth:`transfer_time`)."""
        self.bytes_sent += payload_bytes
        self.frames_sent += self.frame_count(payload_bytes)

    def round_trip_time(self, out_bytes, back_bytes):
        """Stats out + temperatures back, including turnaround latency."""
        return (
            self.transfer_time(out_bytes)
            + self.transfer_time(back_bytes)
            + self.latency_s
        )
