import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def scans(monkeypatch):
    """Each call of ``skew.as_skew_stack``, the check behind every SkewMatrix
    built from a caller's matrix: one (stack shape) entry per call."""
    from freeferm import skew

    calls, real = [], skew.as_skew_stack

    def counted(entries, **kw):
        calls.append(np.shape(entries))
        return real(entries, **kw)

    monkeypatch.setattr(skew, "as_skew_stack", counted)
    return calls


@pytest.fixture
def from_upper_inputs(monkeypatch):
    """A copy of each matrix handed to ``SkewMatrix.from_upper``, in call order."""
    from freeferm import skew

    seen, real = [], skew.SkewMatrix.from_upper

    def recorded(cls, entries):
        seen.append(np.array(entries, dtype=float))
        return real(entries)

    monkeypatch.setattr(skew.SkewMatrix, "from_upper", classmethod(recorded))
    return seen
