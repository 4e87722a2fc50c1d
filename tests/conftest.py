import random

import pytest

from gcompat.bounds import Bounds
from gcompat.perms import mul


@pytest.fixture
def rng():
    return random.Random(20240801)


@pytest.fixture
def bounds():
    return Bounds()


@pytest.fixture
def coset_table():
    """Oracle for coset actions, straight from the definition: x sends the
    point of coset n*r to the point of coset n*(r*x). Points follow `reps`,
    by default the cosets' least elements in canonical order; the table is
    keyed in the group's canonical element order."""

    def build(g, sub, reps=None):
        least = {}
        for e in g.sorted_elements():
            if e not in least:
                coset = [mul(m, e) for m in sub.members()]
                for c in coset:
                    least[c] = min(coset)
        reps = reps or sorted(set(least.values()))
        point = {least[r]: i for i, r in enumerate(reps)}
        return {x: tuple(point[least[mul(r, x)]] for r in reps)
                for x in g.sorted_elements()}

    return build


def pytest_addoption(parser):
    parser.addoption("--run-stretch", action="store_true", default=False,
                     help="run the generator-based stretch suite")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-stretch"):
        return
    skip = pytest.mark.skip(reason="stretch suite: run with --run-stretch")
    for item in items:
        if "stretch" in item.keywords:
            item.add_marker(skip)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "stretch: generator-based large-order end-to-end runs")
