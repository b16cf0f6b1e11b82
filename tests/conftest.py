import pathlib

import pytest

from arquiver import linalg
from arquiver.algebra import build_basis, parse_presentation
from arquiver.knitting import knit

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def pytest_configure(config):
    config.addinivalue_line("markers", "sweep: the full CLI sweep, run only with -m sweep")


def pytest_collection_modifyitems(config, items):
    """Skip the tests marked ``sweep`` unless the marker expression names it."""
    if "sweep" in config.getoption("markexpr"):
        return
    skip = pytest.mark.skip(reason="the full CLI sweep runs with -m sweep")
    for item in items:
        if "sweep" in item.keywords:
            item.add_marker(skip)


def load_algebra(name):
    return build_basis(parse_presentation((FIXTURES / name).read_text()))


@pytest.fixture(scope="session")
def alg_cycle4():
    return load_algebra("cycle4_rad2.alg")


@pytest.fixture(scope="session")
def arq_cycle4(alg_cycle4):
    return knit(alg_cycle4)


@pytest.fixture(scope="session")
def alg_cycle3():
    return load_algebra("cycle3_rad2.alg")


@pytest.fixture(scope="session")
def arq_cycle3(alg_cycle3):
    return knit(alg_cycle3)


@pytest.fixture(scope="session")
def alg_b():
    return load_algebra("b_a3.alg")


@pytest.fixture(scope="session")
def arq_b(alg_b):
    return knit(alg_b)


@pytest.fixture(scope="session")
def alg_a2():
    return load_algebra("a2.alg")


@pytest.fixture(scope="session")
def arq_a2(alg_a2):
    return knit(alg_a2)


@pytest.fixture(scope="session")
def alg_a3line():
    return load_algebra("a3_line.alg")


@pytest.fixture(scope="session")
def arq_a3line(alg_a3line):
    return knit(alg_a3line)


@pytest.fixture(scope="session")
def tube_text():
    return (FIXTURES / "tube_rank3.tq").read_text()


class MatrixCounter:
    """How many matrices with no entries were built."""

    def __init__(self):
        self.empty = 0

    def note(self, nrows, ncols):
        if not nrows or not ncols:
            self.empty += 1


@pytest.fixture
def matrix_counter(monkeypatch):
    """A MatrixCounter fed by every ``Matrix.__init__`` and ``Matrix.adopt``
    while the test runs.  The shared empty matrices start afresh, so each one
    the test needs is built, and counted, once."""
    counter = MatrixCounter()
    matrix = linalg.Matrix
    adopt, init = matrix.adopt.__func__, matrix.__init__

    def counting_adopt(cls, nrows, ncols, rows, field=linalg.QQ):
        counter.note(nrows, ncols)
        return adopt(cls, nrows, ncols, rows, field)

    def counting_init(self, nrows, ncols, data, field=linalg.QQ):
        counter.note(nrows, ncols)
        init(self, nrows, ncols, data, field)

    monkeypatch.setattr(matrix, "adopt", classmethod(counting_adopt))
    monkeypatch.setattr(matrix, "__init__", counting_init)
    monkeypatch.setattr(linalg, "_EMPTY", {}, raising=False)
    return counter
