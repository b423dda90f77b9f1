import contextlib

import pytest

from sumrank import linalg
from sumrank.fields import FieldTower


@pytest.fixture(scope="session")
def f25():
    """F_5 < F_25 = F_5[u], u^2 = 2 (the pinned quadratic model)."""
    return FieldTower(5, 1, 2)


@pytest.fixture(scope="session")
def f169():
    return FieldTower(13, 1, 2)


@pytest.fixture(scope="session")
def f81():
    """p=3, m=2: a tower whose middle field is itself an extension (q=9)."""
    return FieldTower(3, 2, 2)


@pytest.fixture(scope="session")
def f2401():
    """p=7, m=2 (q=49), for the square-table agreement sweep."""
    return FieldTower(7, 2, 2)


@pytest.fixture
def forbidden(monkeypatch):
    """Context manager that makes the named functions of a module raise
    while it is open, so a block shows that it never calls them."""

    @contextlib.contextmanager
    def run(module, *names):
        def called(*args, **kwargs):
            raise AssertionError(f"{module.__name__} function called")

        with monkeypatch.context() as patch:
            for name in names:
                patch.setattr(module, name, called)
            yield

    return run


@pytest.fixture
def floor_and_full_walk(monkeypatch):
    """Run a distance oracle while recording the floor it hands to
    ``linalg.min_weight``; the same words are also walked with floor 1.
    Returns (oracle result, floor, full-walk result)."""
    real = linalg.min_weight

    def run(oracle, *args):
        seen = []

        def spy(words, p, weight, max_enumeration, floor=1):
            seen.append((floor, real(words, p, weight, max_enumeration)))
            return real(words, p, weight, max_enumeration, floor)

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "min_weight", spy)
            d = oracle(*args)
        [(floor, full)] = seen
        return d, floor, full

    return run
