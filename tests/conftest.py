from pathlib import Path

import pytest

from coordrig import parse_coloured_graph

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_NAMES = [
    "square_k1",
    "quad_flex_k1",
    "quad_rigid_k1",
    "seven_rigid_k2",
    "twin_blocks_k2",
    "nested_circuit_k2",
]


def load_fixture(name: str):
    return parse_coloured_graph((FIXTURE_DIR / f"{name}.json").read_text())


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


@pytest.fixture
def square_k1():
    return load_fixture("square_k1")


@pytest.fixture
def quad_flex_k1():
    return load_fixture("quad_flex_k1")


@pytest.fixture
def quad_rigid_k1():
    return load_fixture("quad_rigid_k1")


@pytest.fixture
def seven_rigid_k2():
    return load_fixture("seven_rigid_k2")


@pytest.fixture
def twin_blocks_k2():
    return load_fixture("twin_blocks_k2")


@pytest.fixture
def nested_circuit_k2():
    return load_fixture("nested_circuit_k2")


@pytest.fixture
def pebble_games(monkeypatch):
    """A list that grows by one for every ``PebbleGame`` constructed."""
    from coordrig.pebble import PebbleGame

    games = []
    init = PebbleGame.__init__

    def counting_init(self, *args, **kwargs):
        games.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PebbleGame, "__init__", counting_init)
    return games
