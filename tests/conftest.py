import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ostrowski import make_alpha
from ostrowski.surd import Surd


@pytest.fixture(scope="session")
def p1():
    return make_alpha(1)


@pytest.fixture(scope="session")
def p2():
    return make_alpha(2)


@pytest.fixture(scope="session")
def p3():
    return make_alpha(3)


@pytest.fixture
def surds_built(monkeypatch):
    """Fields of every Surd constructed from here to the end of the test."""
    built = []
    post_init = Surd.__post_init__

    def counting(self):
        built.append((self.a, self.b, self.c, self.d))
        post_init(self)

    monkeypatch.setattr(Surd, "__post_init__", counting)
    return built
