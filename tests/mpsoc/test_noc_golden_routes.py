"""Golden NoC routing tables: every route and switch radix, pinned.

``fixtures/noc_routes.json`` holds full tables for the NoCs a preset, a
report artifact or an example builds, and one SHA-256 per table for
meshes, rings, chains and seeded random connected graphs.  153 of the
256 random graphs have switch pairs joined by more than one shortest
path, so the tables pin the tie-break as well as the path lengths.  The
fixture's ``provenance`` field records where the tables came from.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.mpsoc.noc import Noc, NocConfig, generate_custom, generate_mesh

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "noc_routes.json"
RANDOM_SEEDS = range(256)


def named_topologies():
    """The NoCs the presets, report artifacts and examples build."""
    return {
        "noc2_chain": generate_custom("noc2", 2, ring=False, buffer_flits=3),
        "noc4_ring_chords": generate_custom(
            "noc4", 4, extra_links=[(0, 2), (1, 3)], buffer_flits=3
        ),
        "mesh_m_2x2": generate_mesh("m", 2, 2),
    }


def regular_topologies():
    topologies = {}
    for rows in range(1, 6):
        for cols in range(1, 6):
            topologies[f"mesh{rows}x{cols}"] = generate_mesh("m", rows, cols)
    for count in range(1, 9):
        topologies[f"ring{count}"] = generate_custom("r", count)
        topologies[f"chain{count}"] = generate_custom("c", count, ring=False)
    return topologies


def random_topology(seed):
    """A connected graph of 1-12 switches: a random spanning tree plus
    extra links, some repeated, each possibly reversed, with switches
    and links in shuffled order."""
    rng = random.Random(seed)
    count = rng.randint(1, 12)
    switches = [f"s{k}" for k in range(count)]
    rng.shuffle(switches)
    links = [(switches[k], switches[rng.randrange(k)]) for k in range(1, count)]
    if count > 1:
        links += [tuple(rng.sample(switches, 2))
                  for _ in range(rng.randint(0, 2 * count))]
        links += [link[::-1] for link in rng.choices(links, k=rng.randint(0, 2))]
    rng.shuffle(links)
    links = [link[::-1] if rng.random() < 0.5 else link for link in links]
    return NocConfig(name=f"random{seed}", switches=switches, links=links)


def route_table(config):
    """``{"radix": {switch: radix}, "routes": {src: {dst: path}}}`` with
    no NIs attached to the radix count."""
    noc = Noc(config)
    radix = {switch: noc.switch_radix(switch) for switch in config.switches}
    for switch in config.switches:
        noc.register_endpoint(switch, switch)
    routes = {
        src: {dst: noc.route(src, dst) for dst in config.switches}
        for src in config.switches
    }
    return {"radix": radix, "routes": routes}


def table_digest(table):
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("label", sorted(named_topologies()))
def test_named_topology_routes_and_radix_match_golden(golden, label):
    assert route_table(named_topologies()[label]) == golden["named"][label]


def test_regular_topologies_match_golden(golden):
    observed = {label: table_digest(route_table(config))
                for label, config in regular_topologies().items()}
    assert observed == golden["regular"]


def test_random_connected_graphs_match_golden(golden):
    assert len(golden["random"]) == len(RANDOM_SEEDS) >= 200
    observed = {str(seed): table_digest(route_table(random_topology(seed)))
                for seed in RANDOM_SEEDS}
    assert observed == golden["random"]


def test_mesh_ties_break_by_link_order():
    """Shortest paths, ties broken by the order links were listed, which
    is not XY routing on a mesh."""
    routes = route_table(generate_mesh("m", 3, 3))["routes"]
    assert routes["sw2_2"]["sw0_0"] == ["sw2_2", "sw1_2", "sw0_2", "sw0_1", "sw0_0"]
    assert routes["sw0_0"]["sw2_2"] == ["sw0_0", "sw0_1", "sw0_2", "sw1_2", "sw2_2"]

