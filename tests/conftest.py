import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


def _count_calls(monkeypatch, names) -> list:
    """Names of the given np.linalg functions called from inside qmarginal, in call order."""
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("qmarginal"):
                calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


@pytest.fixture
def eig_calls(monkeypatch):
    """Names of the np.linalg eigensolvers called from inside qmarginal, in call order."""
    return _count_calls(monkeypatch, ("eigh", "eigvalsh"))


@pytest.fixture
def svd_calls(monkeypatch):
    """One "svd" entry per np.linalg.svd call made from inside qmarginal."""
    return _count_calls(monkeypatch, ("svd",))
