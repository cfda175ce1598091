#!/usr/bin/env python3
"""The statistics-extraction subsystem of Figure 2, demonstrated.

Shows the two sniffer flavours on a live run: count-logging sniffers
producing per-window counter deltas, an event-logging sniffer capturing
individual cache events, software toggling a sniffer through its
memory-mapped registers, and the Ethernet dispatcher's accounting —
including a deliberately starved link that forces the VPCM to freeze
the platform's virtual clocks.

Run:  python examples/statistics_extraction.py
"""

from repro.core.dispatcher import BramBuffer, EthernetDispatcher
from repro.core.sniffers import REG_ENABLE, SnifferBank
from repro.emulation.engine import EventDrivenEngine
from repro.emulation.ethernet import EthernetLink
from repro.mpsoc.cache import CacheConfig
from repro.mpsoc.platform import MMIO_BASE, CoreConfig, MPSoCConfig, build_platform
from repro.util.units import KB
from repro.workloads.matrix import matrix_programs


def main():
    platform = build_platform(
        MPSoCConfig(
            name="sniffed",
            cores=[CoreConfig(f"cpu{i}") for i in range(2)],
            icache=CacheConfig(name="i", size=2 * KB, line_size=16),
            dcache=CacheConfig(name="d", size=2 * KB, line_size=16),
        )
    )
    # Count-logging everywhere, plus one event-logging sniffer on cpu0's
    # D-cache.
    dcache_name = platform.dcaches[0].name
    bank = SnifferBank.from_platform(platform, event_logging=[dcache_name])
    print(f"{len(bank)} sniffers instantiated "
          f"({len(bank.count_sniffers())} count-logging, "
          f"{len(bank.event_sniffers())} event-logging)")
    print(f"modelled FPGA overhead: {bank.fpga_overhead_percent():.1f}% "
          f"of the V2VP30\n")

    platform.load_program_all(matrix_programs(2, n=6, iterations=1))
    engine = EventDrivenEngine(platform)

    # Window 1: run a slice and collect.  A count sniffer's record is a
    # flat {counter: delta} dict; nested stats join their keys with dots.
    engine.run_window(2000)
    records, _ = bank.collect_window()
    print("Window 1 counter deltas (selection):")
    for name in sorted(records):
        if name.endswith(".cnt"):
            interesting = {
                k: v for k, v in records[name].items()
                if isinstance(v, (int, float)) and v
            }
            if interesting:
                print(f"  {name:24s} {interesting}")
    events = records.get(f"{dcache_name}.evt", [])
    print(f"\nEvent-logging sniffer captured {len(events)} D-cache events;"
          " first five:")
    for event in events[:5]:
        print(f"  cycle {event.cycle:6d}  {event.kind:12s}  info={event.info}")

    # Software disables cpu1's core sniffer through its MMIO window, the
    # way the emulated application would (Section 4.1).
    target = bank.count_sniffers()[1]
    offset = bank.mmio_offsets[target.name]
    platform.memctrls[0].store(MMIO_BASE + offset + REG_ENABLE, 4, 0, t=0)
    print(f"\nDisabled sniffer {target.name!r} via MMIO "
          f"(address 0x{MMIO_BASE + offset:08x})")
    engine.run_window(4000)
    # The payload is sized from the same snapshot as the records: one
    # header per enabled count sniffer, one entry per counter and event.
    records, payload = bank.collect_window()
    print(f"  its window-2 record: {records[target.name]!r}")
    print(f"  window 2 streamed {payload} bytes, D-cache events included")

    # Dispatcher accounting: a healthy link vs a starved one.
    payload = bank.window_payload_bytes()
    print(f"\nOne window currently produces {payload} bytes of statistics.")
    for label, bandwidth in [("100 Mbit/s", 100e6), ("100 kbit/s", 100e3)]:
        dispatcher = EthernetDispatcher(
            link=EthernetLink(bandwidth_bps=bandwidth),
            buffer=BramBuffer(capacity_bytes=1 * KB),
        )
        total_freeze = 0.0
        for _ in range(10):
            total_freeze += dispatcher.dispatch_window(
                payload, real_window_seconds=0.010, num_sensors=8
            )
        stats = dispatcher.stats()
        print(
            f"  {label:11s}: {stats['mac_frames']} MAC frames, "
            f"buffer peak {stats['buffer_peak_bytes']} B, "
            f"VPCM freezes {stats['freeze_events']} "
            f"({total_freeze * 1e3:.1f} ms frozen)"
        )
    print("\nThe starved link reproduces Section 4.2's congestion behaviour:"
          "\nthe VPCM transparently stops the platform until the BRAM buffer"
          "\ndrains, trading emulation wall-clock for lossless statistics.")


if __name__ == "__main__":
    main()
