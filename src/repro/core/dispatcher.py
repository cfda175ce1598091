"""BRAM statistics buffer + Ethernet dispatcher (Section 4, Figure 2).

Sniffers store their records in a buffer built from FPGA BRAM; the
Ethernet dispatcher concurrently drains it, packing records into MAC
frames in the framework's own format and sending them to the host PC.
When the link cannot keep up and the buffer fills, the dispatcher asks
the VPCM to freeze the platform's virtual clocks until the backlog
drains (Section 4.2, second use of the VPCM).
"""

from repro.emulation.ethernet import EthernetLink

#: Header of one MAC frame in the dispatcher's format: sequence number,
#: window number and record count.
FRAME_HEADER_BYTES = 10


class BramBuffer:
    """The bounded statistics buffer in FPGA BRAM."""

    def __init__(self, capacity_bytes=64 * 1024):
        if capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.level_bytes = 0
        self.peak_bytes = 0
        self.total_pushed = 0

    def push(self, nbytes):
        """Store ``nbytes``; returns the overflow that did not fit."""
        if nbytes < 0:
            raise ValueError("cannot push a negative byte count")
        level = self.level_bytes
        accepted = min(nbytes, self.capacity_bytes - level)
        self.level_bytes = level = level + accepted
        self.total_pushed += accepted
        if level > self.peak_bytes:
            self.peak_bytes = level
        return nbytes - accepted

    def drain(self, nbytes):
        """Remove up to ``nbytes``; returns the amount actually drained."""
        drained = min(nbytes, self.level_bytes)
        self.level_bytes -= drained
        return drained


class EthernetDispatcher:
    """Drains the BRAM buffer into MAC frames over the Ethernet link."""

    def __init__(self, link=None, buffer=None, feedback_bytes_per_sensor=8):
        self.link = link or EthernetLink()
        self.buffer = buffer or BramBuffer()
        self.feedback_bytes_per_sensor = feedback_bytes_per_sensor
        self.windows = 0  # one frame per window; its sequence number
        self.freeze_seconds = 0.0
        self.freeze_events = 0

    def dispatch_window(self, payload_bytes, real_window_seconds, num_sensors=0):
        """Process one statistics window.

        ``payload_bytes`` of records are produced while the platform runs
        for ``real_window_seconds`` of board time; the link drains the
        buffer concurrently.  Returns the *extra* real seconds the VPCM
        must freeze the platform because the buffer would overflow
        (0.0 when the link keeps up).  The temperature feedback from the
        host rides the return path and never blocks the platform (full
        duplex).
        """
        if payload_bytes < 0 or real_window_seconds < 0:
            raise ValueError("negative window inputs")
        wire_payload = payload_bytes + FRAME_HEADER_BYTES
        self.windows += 1
        link, buffer = self.link, self.buffer
        # Concurrent drain while the window ran.
        overflow = buffer.push(wire_payload)
        buffer.drain(link.bandwidth_bps / 8.0 * real_window_seconds)
        freeze = 0.0
        if overflow > 0:
            # Platform frozen until the backlog fits: the link drains at
            # full rate with the producers stopped.
            freeze = link.wire_bytes(overflow) * 8.0 / link.bandwidth_bps
            buffer.drain(overflow)  # modelled as drained during freeze
            self.freeze_events += 1
            self.freeze_seconds += freeze
        link.send(wire_payload)
        if num_sensors:
            link.send(self.feedback_bytes_per_sensor * num_sensors)
        return freeze

    def stats(self):
        return {
            "windows": self.windows,
            "frames": self.windows,
            "bytes_sent": self.link.bytes_sent,
            "mac_frames": self.link.frames_sent,
            "buffer_peak_bytes": self.buffer.peak_bytes,
            "freeze_seconds": self.freeze_seconds,
            "freeze_events": self.freeze_events,
        }
