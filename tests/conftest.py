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
def frames(monkeypatch):
    """The shape of each matrix whose frame LAPACK dorghr forms, the step a
    normal form adds to its reduction: one entry per call, in call order."""
    import scipy.linalg

    calls, real = [], scipy.linalg.lapack.dorghr

    def counted(*args, **kw):
        calls.append(np.shape(args[0]))
        return real(*args, **kw)

    monkeypatch.setattr(scipy.linalg.lapack, "dorghr", counted)
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


def plan_rotations(n):
    """The commuting plan's rounds as signed permutations, a (2n-1, 2n, 2n)
    stack built from the plan's pairs and signs: in round t, pair i = (j, k)
    puts e_j in row 2i and signs[t, i] e_k in row 2i+1."""
    from freeferm import sampling

    pairs, signs, _ = sampling._commuting_plan(n)
    rounds, i = np.arange(len(pairs))[:, None], np.arange(n)
    q = np.zeros((len(pairs), 2 * n, 2 * n))
    q[rounds, 2 * i, pairs[:, 0]] = 1.0
    q[rounds, 2 * i + 1, pairs[:, 1]] = signs
    return q
