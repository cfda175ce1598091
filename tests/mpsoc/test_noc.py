"""NoC tests: topology, routing, wormhole contention, generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpsoc.memory import Memory, MemoryConfig
from repro.mpsoc.noc import Noc, NocConfig, generate_custom, generate_mesh


def make_noc(rows=2, cols=2, **kwargs):
    noc = Noc(generate_mesh("noc", rows, cols, **kwargs))
    return noc


def make_slave(latency=2, name="mem"):
    return Memory(MemoryConfig(name=name, size=4096, latency=latency))


def test_mesh_generation():
    cfg = generate_mesh("m", 3, 3)
    assert len(cfg.switches) == 9
    assert len(cfg.links) == 12  # 2*3*(3-1)
    noc = Noc(cfg)
    assert noc.switch_radix("sw1_1") == 4  # centre switch, no NIs
    noc.register_endpoint("centre", "sw1_1")
    for neighbour in ("sw0_1", "sw1_0", "sw1_2", "sw2_1"):
        noc.register_endpoint(neighbour, neighbour)
        assert noc.route("centre", neighbour) == ["sw1_1", neighbour]


def test_custom_generation_ring_and_extra_links():
    cfg = generate_custom("c", 4, extra_links=[(0, 2)])
    assert len(cfg.switches) == 4
    assert ("sw0", "sw2") in cfg.links
    chain = generate_custom("c", 3, ring=False)
    assert len(chain.links) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        NocConfig(name="n", switches=[], links=[])
    with pytest.raises(ValueError):
        NocConfig(name="n", switches=["a", "a"], links=[])
    with pytest.raises(ValueError):
        NocConfig(name="n", switches=["a"], links=[("a", "b")])
    with pytest.raises(ValueError):
        NocConfig(name="n", switches=["a", "b"], links=[("a", "a")])
    with pytest.raises(ValueError):
        NocConfig(name="n", switches=["a", "b"], links=[], buffer_flits=0)


def test_disconnected_topology_rejected():
    with pytest.raises(ValueError):
        Noc(NocConfig(name="n", switches=["a", "b"], links=[]))


def test_routes_are_shortest_paths():
    noc = make_noc(3, 3)
    noc.register_endpoint("cpu", "sw0_0")
    noc.register_endpoint("mem", "sw2_2")
    path = noc.route("cpu", "mem")
    assert path[0] == "sw0_0" and path[-1] == "sw2_2"
    assert len(path) == 5  # 4 hops on a 3x3 mesh corner to corner


def test_endpoint_validation():
    noc = make_noc()
    with pytest.raises(ValueError):
        noc.register_endpoint("x", "nonexistent")
    noc.register_endpoint("x", "sw0_0")
    with pytest.raises(ValueError):
        noc.register_endpoint("x", "sw0_1")


def test_switch_radix_counts_links_and_nis():
    noc = make_noc(2, 2)
    noc.register_endpoint("a", "sw0_0")
    noc.register_endpoint("b", "sw0_0")
    assert noc.switch_radix("sw0_0") == 2 + 2
    assert noc.switch_radix("sw1_1") == 2


def test_transfer_latency_and_stats():
    noc = make_noc()
    slave = make_slave()
    noc.register_endpoint(slave.name, "sw1_1")
    master = noc.register_master("cpu.bridge", "sw0_0")
    latency = noc.transfer(master, slave, 0x0, False, 1, t=0)
    # NI in/out + 2 hops each way + serialization + memory latency.
    assert latency > 10
    stats = noc.stats()
    assert stats["packets"] == 2
    assert stats["ocp_transactions"] == 1
    assert stats["flits"] == 2 + 2  # RD request (hdr+addr) + response (hdr+data)


def test_write_carries_payload_flits():
    noc = make_noc()
    slave = make_slave()
    noc.register_endpoint(slave.name, "sw0_1")
    master = noc.register_master("cpu.bridge", "sw0_0")
    noc.transfer(master, slave, 0x0, True, 4, t=0)
    stats = noc.stats()
    assert stats["flits"] == (2 + 4) + 1  # WR burst + ack


def test_contention_on_shared_link():
    noc = make_noc(1, 2)
    slave = make_slave(latency=1)
    noc.register_endpoint(slave.name, "sw0_1")
    m0 = noc.register_master("cpu0.bridge", "sw0_0")
    m1 = noc.register_master("cpu1.bridge", "sw0_0")
    l0 = noc.transfer(m0, slave, 0, False, 8, t=0)
    l1 = noc.transfer(m1, slave, 0, False, 8, t=0)
    assert l1 > l0  # second packet stalls behind the first wormhole


def test_same_switch_endpoints_take_no_hops():
    noc = make_noc(1, 1)
    slave = make_slave(latency=3)
    noc.register_endpoint(slave.name, "sw0_0")
    master = noc.register_master("cpu.bridge", "sw0_0")
    latency = noc.transfer(master, slave, 0, False, 1, t=0)
    # Two NI traversals each way + serialization + memory: small but > mem.
    assert latency >= 3


def test_unknown_master_rejected():
    noc = make_noc()
    slave = make_slave()
    noc.register_endpoint(slave.name, "sw0_0")
    with pytest.raises(ValueError):
        noc.transfer(5, slave, 0, False, 1, 0)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    src=st.integers(min_value=0, max_value=15),
    dst=st.integers(min_value=0, max_value=15),
)
def test_mesh_routes_are_minimal(rows, cols, src, dst):
    """Property: route length equals Manhattan distance on any mesh."""
    noc = Noc(generate_mesh("m", rows, cols))
    n = rows * cols
    src, dst = src % n, dst % n
    sr, sc = divmod(src, cols)
    dr, dc = divmod(dst, cols)
    noc.register_endpoint("a", f"sw{sr}_{sc}")
    noc.register_endpoint("b", f"sw{dr}_{dc}")
    path = noc.route("a", "b")
    assert len(path) - 1 == abs(sr - dr) + abs(sc - dc)


@settings(max_examples=20, deadline=None)
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # master
            st.booleans(),  # write?
            st.integers(min_value=1, max_value=8),  # burst
        ),
        min_size=1,
        max_size=40,
    )
)
def test_flit_conservation(transfers):
    """Property: flit counters equal the sum of per-packet flit sizes."""
    from repro.mpsoc.ocp import CMD_READ, CMD_WRITE, OcpRequest

    noc = make_noc(2, 2)
    slave = make_slave()
    noc.register_endpoint(slave.name, "sw1_1")
    masters = [noc.register_master(f"m{i}.bridge", f"sw{i % 2}_0") for i in range(4)]
    expected = 0
    for master, is_write, burst in transfers:
        noc.transfer(masters[master], slave, 0, is_write, burst, t=0)
        request = OcpRequest(
            master="x", cmd=CMD_WRITE if is_write else CMD_READ, addr=0, burst_len=burst
        )
        expected += request.request_flits() + request.response_flits()
    assert noc.stats()["flits"] == expected


def _noc_state(noc, slave):
    return (noc.stats(), dict(noc._link_busy), slave.port_busy_until, slave.stats())


@settings(max_examples=20, deadline=None)
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # master
            st.booleans(),  # write?
            st.integers(min_value=0, max_value=30),  # issue time step
        ),
        min_size=1,
        max_size=30,
    )
)
def test_one_word_ports_match_the_general_transfer(transfers):
    """The generated ``read1``/``write1`` of a port time and count a
    one-word transfer exactly as ``port(addr, is_write, t, 1)``."""
    nocs = []
    for _ in range(2):
        noc = make_noc(3, 3)
        slave = make_slave()
        noc.register_endpoint(slave.name, "sw2_1")
        masters = [noc.register_master(f"m{i}.bridge", f"sw{i % 3}_{i // 3}")
                   for i in range(4)]
        nocs.append((noc, slave, [noc.port(m, slave) for m in masters]))
    t = 0
    for master, is_write, step in transfers:
        t += step
        (noc_a, _, ports_a), (noc_b, _, ports_b) = nocs
        general = ports_a[master](0x40, is_write, t, 1)
        port = ports_b[master]
        one = (port.write1 if is_write else port.read1)(0x40, t)
        assert one == general
    assert _noc_state(*nocs[0][:2]) == _noc_state(*nocs[1][:2])
