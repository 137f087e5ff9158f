import atexit
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from renyiflow import balance_check as bc
from renyiflow import generator as gen
from renyiflow import matcore as mc

# property tests draw the same examples on every run and keep no example
# database, so a run neither depends on nor writes earlier runs' state
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# hypothesis still caches the literals of the test sources under its home
# directory; a temporary one, removed at exit, keeps the run out of the checkout
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-home-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


@pytest.fixture(scope="session")
def qubit_xz():
    return gen.qubit_xz_generator()


@pytest.fixture(scope="session")
def depol():
    sigma = np.diag([0.3, 0.7]).astype(complex)
    return gen.depolarizing_generator(0.7, sigma)


@pytest.fixture(scope="session")
def counterexample():
    return bc.carlen_maas_counterexample()


@pytest.fixture(scope="session")
def cm_sigma():
    return np.array([[2.0, 3.0], [3.0, 5.0]], dtype=complex) / 7.0


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def eigensolves(monkeypatch):
    """Count Hermitian eigensolves: `eigensolves(fn)` calls fn and returns
    how many `np.linalg.eigh` and `np.linalg.eigvalsh` calls it made."""
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))

    def count(fn) -> int:
        calls.clear()
        fn()
        return len(calls)

    return count


@pytest.fixture()
def validations(monkeypatch):
    """Count state validations: `validations(fn)` calls fn and returns how
    many `mc.require_density` calls it made."""
    calls = []
    real = mc.require_density

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mc, "require_density", counting)

    def count(fn) -> int:
        calls.clear()
        fn()
        return len(calls)

    return count
