"""Network-on-Chip interconnect (Section 3.3).

An xpipes-class NoC: network interfaces (NIs) translate OCP bursts from
the memory-controller bridges into wormhole packets; switches with small
output buffers forward flits over 32-bit links; routing is static
shortest-path with ties broken by the order the links are listed (not
XY on a mesh; see :func:`generate_mesh`), precomputed into per-switch
tables the way ``XpipesCompiler`` instantiates application-specific
NoCs.

Timing model (fast path): the head flit pays ``ni_latency`` for
packetization, ``hop_latency + link_latency`` per hop, and contends for
links whose occupancy is tracked with per-link busy times (a packet of F
flits holds each traversed link for F cycles — wormhole serialization).
The signal-level engine in :mod:`repro.emulation.cycle_accurate` moves
individual flits cycle by cycle instead.

:func:`generate_mesh` and :func:`generate_custom` play the role of the
XpipesCompiler topology generator.
"""

from dataclasses import dataclass

from repro.mpsoc import events as ev
from repro.mpsoc.events import CounterBlock, Observable
from repro.util.codegen import fresh
from repro.util.jsondata import check_keys


@dataclass
class NocConfig:
    """Static description of one NoC instance."""

    name: str
    switches: list
    links: list  # (switch_a, switch_b) bidirectional pairs
    flit_width_bits: int = 32
    buffer_flits: int = 3
    hop_latency: int = 2
    link_latency: int = 1
    ni_latency: int = 2

    def __post_init__(self):
        if not self.switches:
            raise ValueError(f"{self.name}: NoC needs at least one switch")
        known = set(self.switches)
        if len(known) != len(self.switches):
            raise ValueError(f"{self.name}: duplicate switch names")
        for a, b in self.links:
            if a not in known or b not in known:
                raise ValueError(f"{self.name}: link ({a}, {b}) references unknown switch")
            if a == b:
                raise ValueError(f"{self.name}: self-link on {a}")
        if self.buffer_flits < 1:
            raise ValueError(f"{self.name}: buffers must hold at least one flit")

    def to_dict(self):
        return {
            "name": self.name,
            "switches": list(self.switches),
            "links": [list(link) for link in self.links],
            "flit_width_bits": self.flit_width_bits,
            "buffer_flits": self.buffer_flits,
            "hop_latency": self.hop_latency,
            "link_latency": self.link_latency,
            "ni_latency": self.ni_latency,
        }

    @classmethod
    def from_dict(cls, data):
        check_keys(data, cls.__dataclass_fields__, "noc")
        data = dict(data)
        data["links"] = [tuple(link) for link in data.get("links", [])]
        return cls(**data)


class Noc(Observable):
    """Fast timed-transaction NoC sharing the :class:`Bus` transfer API."""

    def __init__(self, config):
        super().__init__()
        self.config = config
        self.name = config.name
        self.counters = CounterBlock(config.name)
        # Neighbours in the order their links are listed: the route
        # search's tie-break.
        self._adjacency = {s: {} for s in config.switches}
        for a, b in config.links:
            self._adjacency[a][b] = self._adjacency[b][a] = None
        self._endpoints = {}  # endpoint name -> switch
        self._routes = {}  # (src switch, dst switch) -> [switches]
        self._link_busy = {}  # (a, b) directed -> busy-until cycle
        self.switch_flits = {s: 0 for s in config.switches}
        self.link_flits = {}
        self.per_master_wait = {}
        self.masters = []
        self._port_code = {}  # compiled one-word ports, by source
        self._precompute_routes()

    def _precompute_routes(self):
        """Breadth-first search from every switch: the first path to
        reach a switch is its route."""
        for src in self._adjacency:
            paths = {src: [src]}
            queue = [src]
            for switch in queue:  # grows while it is read
                for neighbour in self._adjacency[switch]:
                    if neighbour not in paths:
                        paths[neighbour] = paths[switch] + [neighbour]
                        queue.append(neighbour)
            if len(paths) < len(self._adjacency):
                raise ValueError(f"{self.name}: topology is not connected")
            for dst, path in paths.items():
                self._routes[(src, dst)] = path

    # -- topology / attachment ---------------------------------------------
    def register_endpoint(self, name, switch):
        """Attach an NI for ``name`` (a core bridge or a memory bridge)."""
        if switch not in self.switch_flits:
            raise ValueError(f"{self.name}: unknown switch {switch!r}")
        if name in self._endpoints:
            raise ValueError(f"{self.name}: endpoint {name!r} already attached")
        self._endpoints[name] = switch
        return name

    def register_master(self, name, switch=None):
        """Bus-compatible master registration; returns the master id."""
        master_id = len(self.masters)
        self.masters.append(name)
        self.per_master_wait[master_id] = 0
        if switch is not None:
            self.register_endpoint(name, switch)
        return master_id

    def endpoint_switch(self, name):
        return self._endpoints[name]

    def switch_radix(self, switch):
        """Channels on a switch: inter-switch links + attached NIs."""
        degree = len(self._adjacency[switch])
        nis = sum(1 for s in self._endpoints.values() if s == switch)
        return degree + nis

    def route(self, src_endpoint, dst_endpoint):
        """Switch path between two endpoints (for tests and reports)."""
        src = self._endpoints[src_endpoint]
        dst = self._endpoints[dst_endpoint]
        return list(self._routes[(src, dst)])

    # -- fast timed transfer ---------------------------------------------------
    def port(self, master_id, slave):
        """:meth:`transfer` bound to one master/slave pair,
        ``port(addr, is_write, t, nwords=1) -> latency``, with the static
        route and the link tables in locals.  A memory controller holds
        one per shared range; ``slave`` is a
        :class:`~repro.mpsoc.memory.Memory`.

        ``port.read1(addr, t)`` and ``port.write1(addr, t)`` are the
        same transfer of one word, generated with the route's hops
        unrolled and the packets' flit counts folded in: the uncached
        shared accesses of a translated program call them once each
        (:mod:`repro.mpsoc.translate`).  On ``emu_dither``'s one-switch
        route a call takes half the time of the closure's; without them
        its ``sim_ips`` is 13 % lower.
        """
        if not 0 <= master_id < len(self.masters):
            raise ValueError(f"{self.name}: unknown master id {master_id}")
        master_name = self.masters[master_id]
        path = self.route(master_name, slave.name)
        request_links = tuple(zip(path, path[1:]))
        response_links = tuple((b, a) for a, b in reversed(request_links))
        cfg = self.config
        per_hop = cfg.hop_latency + cfg.link_latency
        ni_latency = cfg.ni_latency
        link_busy, link_flits = self._link_busy, self.link_flits
        switch_flits, counts = self.switch_flits, self.counters.counts
        serve = slave.serve

        def transfer(addr, is_write, t, nwords=1):
            if nwords < 1:
                raise ValueError(f"bad OCP burst length {nwords}")
            # Flits per packet follow repro.mpsoc.ocp.OcpRequest.
            request_flits = 2 + nwords if is_write else 2
            response_flits = 1 if is_write else 1 + nwords
            # Wormhole: the head advances hop by hop, stalling on busy
            # links; each link stays occupied for the packet's flits
            # behind the head.  The tail arrives flits-1 cycles behind
            # the head, plus the depacketization latency.
            head = t + ni_latency
            for link in request_links:
                free = link_busy.get(link, 0)
                head = (head if head > free else free) + per_hop
                link_busy[link] = head + request_flits - 1
                link_flits[link] = link_flits.get(link, 0) + request_flits
            arrival = head + request_flits - 1 + ni_latency
            # Memory service at the destination.
            busy = slave.port_busy_until
            start = arrival if arrival > busy else busy
            done = start + serve(addr, is_write, start, nwords)
            slave.port_busy_until = done
            # Response packet back to the master.
            head = done + ni_latency
            for link in response_links:
                free = link_busy.get(link, 0)
                head = (head if head > free else free) + per_hop
                link_busy[link] = head + response_flits - 1
                link_flits[link] = link_flits.get(link, 0) + response_flits
            # Both packets pass every switch on the path.
            flits = request_flits + response_flits
            for switch in path:
                switch_flits[switch] += flits
            counts[ev.NOC_PACKET] = counts.get(ev.NOC_PACKET, 0) + 2
            counts[ev.NOC_FLIT] = counts.get(ev.NOC_FLIT, 0) + flits
            counts["ocp_transactions"] = counts.get("ocp_transactions", 0) + 1
            if self._event_hooks:
                self.emit(
                    t, self.name, ev.NOC_PACKET, (master_name, slave.name, nwords)
                )
            return head + response_flits - 1 + ni_latency - t

        source = _one_word_source(path, per_hop, ni_latency)
        code = self._port_code.get(source)
        if code is None:  # ports over the same route share the compile
            code = self._port_code[source] = compile(
                source, f"<{self.name} port>", "exec")
        namespace = {
            "link_busy": link_busy, "link_flits": link_flits,
            "switch_flits": switch_flits, "counts": counts, "slave": slave,
            "serve": serve, "noc": self, "noc_hooks": self._event_hooks,
            "master_name": master_name,
        }
        exec(fresh(code), namespace)
        # Popped, so the globals do not hold their own functions: a port
        # then dies with its memory controller, not at a full collection.
        transfer.read1 = namespace.pop("read1")
        transfer.write1 = namespace.pop("write1")
        return transfer

    def transfer(self, master_id, slave, addr, is_write, nwords, t):
        """Execute one OCP burst over the NoC; returns total latency.

        ``slave`` is a :class:`~repro.mpsoc.memory.Memory` attached with
        :meth:`register_endpoint`.  The head flit pays ``ni_latency``,
        then ``hop_latency + link_latency`` per hop and any wait for a
        busy link; the request is a header and an address flit plus the
        written words, the response a header plus the read words.  A one-off call: repeated transfers go through
        a :meth:`port`.
        """
        return self.port(master_id, slave)(addr, is_write, t, nwords)

    # -- statistics ------------------------------------------------------------
    def stats(self):
        return {
            "packets": self.counters.get(ev.NOC_PACKET),
            "flits": self.counters.get(ev.NOC_FLIT),
            "ocp_transactions": self.counters.get("ocp_transactions"),
            "switch_flits": dict(self.switch_flits),
            "link_flits": dict(self.link_flits),
        }


def _one_word_source(path, per_hop, ni_latency):
    """Source of ``read1(addr, t)`` and ``write1(addr, t)``: the port's
    transfer of one word over the switch ``path``, each hop a
    straight-line update of the link tables.  A read's request carries
    2 flits and its response 2, a write's 3 and 1."""
    functions = []
    for name, is_write, request, response in (("read1", False, 2, 2),
                                              ("write1", True, 3, 1)):
        lines = [f"def {name}(addr, t):", f"    head = t + {ni_latency}"]
        for k, (route, flits) in enumerate(((path, request),
                                            (path[::-1], response))):
            if k:  # the memory serves between the packets
                lines += [
                    f"    arrival = head + {request - 1 + ni_latency}",
                    "    busy = slave.port_busy_until",
                    "    start = arrival if arrival > busy else busy",
                    f"    done = start + serve(addr, {is_write}, start, 1)",
                    "    slave.port_busy_until = done",
                    f"    head = done + {ni_latency}",
                ]
            for link in zip(route, route[1:]):
                lines += [
                    f"    free = link_busy.get({link!r}, 0)",
                    f"    head = (head if head > free else free) + {per_hop}",
                    f"    link_busy[{link!r}] = head + {flits - 1}",
                    f"    link_flits[{link!r}] = link_flits.get({link!r}, 0) + {flits}",
                ]
        lines += [f"    switch_flits[{switch!r}] += {request + response}"
                  for switch in path]
        lines += [
            f"    counts[{ev.NOC_PACKET!r}] = counts.get({ev.NOC_PACKET!r}, 0) + 2",
            f"    counts[{ev.NOC_FLIT!r}] = counts.get({ev.NOC_FLIT!r}, 0) + "
            f"{request + response}",
            "    counts['ocp_transactions'] = counts.get('ocp_transactions', 0) + 1",
            "    if noc_hooks:",
            f"        noc.emit(t, noc.name, {ev.NOC_PACKET!r}, "
            "(master_name, slave.name, 1))",
            f"    return head + {response - 1 + ni_latency} - t",
        ]
        functions.append("\n".join(lines) + "\n")
    return "\n\n".join(functions)


def generate_mesh(name, rows, cols, **kwargs):
    """Generate a ``rows x cols`` mesh NoC.

    Links are made row by row, each switch's right link before its down
    link, so a switch's neighbours come up, left, right, down.  Routes
    are shortest paths with ties broken in that order, which is not XY:
    on a 3x3 mesh ``sw0_0 -> sw2_2`` runs ``sw0_1, sw0_2, sw1_2`` but
    ``sw2_2 -> sw0_0`` runs ``sw1_2, sw0_2, sw0_1``."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    switches = [f"sw{r}_{c}" for r in range(rows) for c in range(cols)]
    links = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                links.append((f"sw{r}_{c}", f"sw{r}_{c + 1}"))
            if r + 1 < rows:
                links.append((f"sw{r}_{c}", f"sw{r + 1}_{c}"))
    return NocConfig(name=name, switches=switches, links=links, **kwargs)


def generate_custom(name, num_switches, extra_links=(), ring=True, **kwargs):
    """Generate an application-specific topology the XpipesCompiler way.

    ``num_switches`` switches named ``sw0..swN-1`` connected in a ring
    (or a chain when ``ring=False``) plus any ``extra_links`` given as
    ``(i, j)`` switch-index pairs.
    """
    if num_switches < 1:
        raise ValueError("need at least one switch")
    switches = [f"sw{i}" for i in range(num_switches)]
    links = []
    for i in range(num_switches - 1):
        links.append((f"sw{i}", f"sw{i + 1}"))
    if ring and num_switches > 2:
        links.append((f"sw{num_switches - 1}", "sw0"))
    for i, j in extra_links:
        links.append((f"sw{i}", f"sw{j}"))
    return NocConfig(name=name, switches=switches, links=links, **kwargs)
