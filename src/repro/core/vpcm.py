"""Virtual Platform Clock Manager (Section 4.2, Figure 2).

The VPCM generates the virtual clocks of the emulated MPSoC from the
board's physical oscillator (100 MHz in the paper's implementation).
Its three input classes map to three methods here:

* ``VIRTUAL_CLK_SUPPRESSION`` requests from the memory controllers when
  a physical memory cannot honour the configured latency —
  :meth:`freeze_cycles`;
* congestion stop/resume from the Ethernet dispatcher —
  :meth:`freeze_seconds`;
* temperature-sensor signals driving dynamic frequency scaling —
  :meth:`set_frequency`.

The virtual/real time accounting implements the paper's example: with a
500 MHz virtual clock on a 100 MHz board, a 10 ms emulated sampling
period takes 50 ms of board time ("our framework will sample every
50 ms of real execution, but analyzed by the SW thermal library as
representing 10 ms of actual emulated execution").
"""

from dataclasses import dataclass, field

from repro.util.units import MHZ

FREEZE_MEMORY = "memory-latency"
FREEZE_ETHERNET = "ethernet-congestion"
FREEZE_THERMAL = "thermal-stop"


@dataclass
class FrequencyTransition:
    time_s: float  # emulated time of the switch
    from_hz: float
    to_hz: float
    reason: str = ""


@dataclass
class Vpcm:
    """Virtual clock generation and accounting for one platform."""

    physical_hz: float = 100 * MHZ
    virtual_hz: float = 100 * MHZ
    emulated_seconds: float = 0.0
    real_seconds: float = 0.0
    freezes: dict = field(default_factory=dict)
    transitions: list = field(default_factory=list)

    def attach_platform(self, platform):
        """Wire the memory controllers' suppression signals to this VPCM."""
        for memctrl in platform.memctrls:
            memctrl.clk_suppression_hook = self.freeze_cycles
        return self

    # -- virtual frequency (DFS) -------------------------------------------------
    def set_frequency(self, hz, time_s=None, reason=""):
        """Switch the system domain's virtual clock (the DFS actuator)."""
        if hz < 0:
            raise ValueError(f"negative frequency {hz}")
        if hz != self.virtual_hz:
            self.transitions.append(
                FrequencyTransition(
                    time_s if time_s is not None else self.emulated_seconds,
                    self.virtual_hz,
                    hz,
                    reason,
                )
            )
            self.virtual_hz = hz
        return self.virtual_hz

    @property
    def stretch_factor(self):
        """Physical cycles per virtual cycle (>= 1 when emulating a design
        faster than the board)."""
        if self.virtual_hz <= 0:
            return 1.0
        return max(1.0, self.virtual_hz / self.physical_hz)

    def window_cycles(self, emulated_seconds):
        """Virtual cycles the platform advances in one sampling window."""
        return int(round(emulated_seconds * self.virtual_hz))

    def window_real_seconds(self, emulated_seconds):
        """Board seconds one window takes (excluding freezes).

        A virtual cycle executes as one physical cycle, so a window of
        ``E`` emulated seconds at a virtual clock above the board clock
        takes ``E * f_virt / f_phys`` board seconds (the paper's 10 ms ->
        50 ms example); at or below the board clock the virtual clock is
        generated directly and a window takes exactly ``E``.
        """
        if self.virtual_hz <= 0:
            return emulated_seconds  # clocks stopped: the board just waits
        return emulated_seconds * self.stretch_factor

    # -- freezes -------------------------------------------------------------------
    def freeze_cycles(self, physical_cycles, reason=FREEZE_MEMORY):
        """Inhibit the virtual clock for ``physical_cycles`` board cycles."""
        self.freeze_seconds(physical_cycles / self.physical_hz, reason)

    def freeze_seconds(self, seconds, reason=FREEZE_ETHERNET):
        if seconds < 0:
            raise ValueError(f"negative freeze {seconds}")
        if seconds == 0:
            return
        self.freezes[reason] = self.freezes.get(reason, 0.0) + seconds
        self.real_seconds += seconds

    def total_freeze_seconds(self):
        return sum(self.freezes.values())

    # -- window accounting ------------------------------------------------------------
    def account_window(self, emulated_seconds, real_seconds=None):
        """Advance emulated and real time by one sampling window.

        ``real_seconds`` is the window's :meth:`window_real_seconds`
        when the caller already holds it.
        """
        if real_seconds is None:
            real_seconds = self.window_real_seconds(emulated_seconds)
        self.emulated_seconds += emulated_seconds
        self.real_seconds += real_seconds

    def report(self):
        return {
            "virtual_hz": self.virtual_hz,
            "physical_hz": self.physical_hz,
            "emulated_seconds": self.emulated_seconds,
            "real_seconds": self.real_seconds,
            "freeze_breakdown": dict(self.freezes),
            "frequency_transitions": len(self.transitions),
        }
