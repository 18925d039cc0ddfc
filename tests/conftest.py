import contextlib
import importlib
import math
import sys

import numpy as np
import pytest

from walkbound import DenseMatrix


@pytest.fixture
def e1():
    # 3x4 matrix whose row weights are flat at every order while the
    # column weights are not: pseudo-regular without being regular.
    return DenseMatrix([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])


@pytest.fixture
def c2():
    return DenseMatrix([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


@pytest.fixture
def w_star():
    # Two regular blocks sharing the same top singular value 2; the whole
    # is almost regular but not regular.
    s = math.sqrt(2.0)
    return DenseMatrix([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, s, s]])


@pytest.fixture
def path3():
    return DenseMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])


@pytest.fixture
def path4():
    return DenseMatrix([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])


@pytest.fixture
def k23():
    a = np.zeros((5, 5))
    a[:2, 2:] = 1.0
    a[2:, :2] = 1.0
    return DenseMatrix(a)


@pytest.fixture
def rand_nonneg():
    def make(seed, max_dim=8, density=0.7, min_dim=1):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(min_dim, max_dim + 1))
        n = int(rng.integers(min_dim, max_dim + 1))
        vals = rng.uniform(0.0, 1.0, size=(m, n))
        vals[rng.uniform(size=(m, n)) >= density] = 0.0
        return DenseMatrix(vals)

    return make


@pytest.fixture
def rand_complex():
    def make(seed, max_dim=8, min_dim=1):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(min_dim, max_dim + 1))
        n = int(rng.integers(min_dim, max_dim + 1))
        return DenseMatrix(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))

    return make


@pytest.fixture
def rand_symmetric():
    # Symmetric with positive entries, so every bound and certificate
    # applies, and with sigma above 1 on A / 2^e for the seeds the tests
    # use, so the floor of a relative gap is not what decides it.
    def make(seed):
        rng = np.random.default_rng(seed)
        x = rng.random((int(rng.integers(3, 9)),) * 2)
        return DenseMatrix(x + x.T)

    return make


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(on_call, (module, name), ...)`` rebinds each named
    walkbound function at every module binding that holds it, as the
    benchmark's tracer does, so that each call first runs
    ``on_call(name, args, kwargs)`` with its positional and keyword
    arguments."""
    modules = [mod for key, mod in sys.modules.items()
               if key == "walkbound" or key.startswith("walkbound.")]

    def record(on_call, *targets):
        for home, name in targets:
            original = getattr(importlib.import_module(f"walkbound.{home}"), name)

            def recorded(*args, _name=name, _fn=original, **kwargs):
                on_call(_name, args, kwargs)
                return _fn(*args, **kwargs)

            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, recorded)

    return record


def pytest_configure(config):
    config._acceptance_lines = {}


@pytest.fixture
def acceptance(request):
    """Record a one-line pass/fail verdict for an acceptance criterion."""

    @contextlib.contextmanager
    def recorder(number, title):
        lines = request.config._acceptance_lines
        try:
            yield
        except BaseException:
            lines[number] = f"criterion {number:>2}: FAIL  {title}"
            raise
        lines[number] = f"criterion {number:>2}: PASS  {title}"

    return recorder


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", {})
    if lines:
        terminalreporter.section("acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])
