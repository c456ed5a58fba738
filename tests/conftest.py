"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.params import Params
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    harary_graph,
    path_graph,
    random_connected_graph,
    random_hypergraph,
)
from repro.graph.graph import Graph
from repro.graph.hypergraph import Hypergraph


def pytest_addoption(parser):
    parser.addoption(
        "--chaos-seed",
        type=int,
        default=0,
        help="workload seed for the fault-injection tests (-m faults); "
             "the chaos smoke job sweeps several (the service's fault "
             "schedules are seeded by python -m repro sim --seed)",
    )


@pytest.fixture
def chaos_seed(request) -> int:
    """Seed of the deterministic chaos workload (see --chaos-seed)."""
    return request.config.getoption("--chaos-seed")


@pytest.fixture
def fast_params() -> Params:
    """Small constants so sketch-heavy tests stay quick."""
    return Params.fast()


@pytest.fixture
def practical_params() -> Params:
    """The library's default profile."""
    return Params.practical()


@pytest.fixture
def small_connected_graph() -> Graph:
    """A fixed 12-vertex connected graph with some redundancy."""
    return random_connected_graph(12, 10, seed=1234)


@pytest.fixture
def small_hypergraph() -> Hypergraph:
    """A fixed rank-3 hypergraph on 10 vertices."""
    return random_hypergraph(10, 14, r=3, seed=77)


def graphs_for_oracle_tests():
    """A diverse list of small graphs for oracle comparisons."""
    graphs = [
        path_graph(6),
        cycle_graph(7),
        complete_graph(6),
        harary_graph(3, 9),
        harary_graph(4, 10),
        gnp_graph(9, 0.35, seed=5),
        gnp_graph(10, 0.5, seed=6),
        gnp_graph(8, 0.2, seed=7),
        random_connected_graph(10, 8, seed=8),
    ]
    g = Graph(5)  # disconnected with isolated vertex
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    graphs.append(g)
    return graphs
