"""Layer spans recorded from outside the package.

A :class:`Tracer` replaces each traced public function with a timing wrapper:
the module attribute itself, which catches calls made through module globals
(``gaussian_to_dense`` calling ``gaussian_unitary``), and every
``from ... import`` alias of it in the other ``freeferm`` modules
(``estimate_gamma`` is bound by name in both ``cli`` and ``learning``).
Leaving the ``with`` block restores every original.

Spans stay in memory. Each records its name, start, end, parent span,
request id, self time (its duration minus its child spans) and, where the
layer has one, a work count taken at the boundary.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

#: (span name, module, function) of every traced public function
TARGETS = (
    ("cli.main", "cli", "main"),
    ("learning.test_bounded_rank", "learning", "test_bounded_rank"),
    ("learning.tomograph_mixed", "learning", "tomograph_mixed"),
    ("learning.robustness_experiment", "learning", "robustness_experiment"),
    ("sampling.estimate_gamma", "sampling", "estimate_gamma"),
    ("sampling.z_basis_distribution", "sampling", "z_basis_distribution"),
    ("dense.gaussian_unitary", "dense", "gaussian_unitary"),
    ("dense.gaussian_to_dense", "dense", "gaussian_to_dense"),
    ("dense.correlation_matrix", "dense", "correlation_matrix"),
    ("dense.state_metrics", "dense", "state_metrics"),
    ("dense.gaussianification", "dense", "gaussianification"),
    ("states.from_correlation", "states", "from_correlation"),
    ("states.clip_to_valid", "states", "clip_to_valid"),
    ("states.random_gaussian_state", "states", "random_gaussian_state"),
    ("states.distance_bounds", "states", "distance_bounds"),
    ("states.overlap_pure", "states", "overlap_pure"),
    ("states.parity", "states", "parity"),
    ("states.purify", "states", "purify"),
    ("skew.pfaffian", "skew", "pfaffian"),
    ("skew.normal_form", "skew", "normal_form"),
    ("skew.normal_eigenvalues", "skew", "normal_eigenvalues"),
    ("skew.schatten_norm", "skew", "schatten_norm"),
)

LAYERS = ("cli", "learning", "sampling", "dense", "states", "skew")

#: reported spans; estimate_gamma's span carries its scheme
SPAN_NAMES = tuple(
    n for name, _, _ in TARGETS
    for n in ((f"{name}.commuting", f"{name}.pauli_pairs")
              if name == "sampling.estimate_gamma" else (name,))
)

#: work-count metric -> prefix of the span names whose work counts it sums
COUNTS = {
    "sampling.z_basis_distribution.outcomes": "sampling.z_basis_distribution",
    "sampling.estimate_gamma.shots": "sampling.estimate_gamma.",
    "dense.gaussian_unitary.entries": "dense.gaussian_unitary",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    self_s: float
    error: bool
    work: int


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _modes(matrix) -> int:
    return len(matrix) // 2


#: per-span work count, computed from the call's arguments and result
_WORK: Dict[str, Callable] = {
    # 2^n outcomes of the expanded tree
    "sampling.z_basis_distribution": lambda a, k, r: 1 << _modes(_first_arg(a, k)),
    "sampling.estimate_gamma": lambda a, k, r: int(r.shots_used),
    # computed as 4^n entries of the 2^n x 2^n unitary
    "dense.gaussian_unitary": lambda a, k, r: 4 ** _modes(_first_arg(a, k)),
}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: List[Span] = []
        self.request: Optional[int] = None  # id of the request in flight
        self.missing: List[str] = []  # targets the package no longer has
        self._open: List[list] = []  # [span id, seconds in child spans]
        self._next_id = 0
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        self.missing = []
        modules = [m for k, m in list(sys.modules.items())
                   if k == "freeferm" or k.startswith("freeferm.")]
        try:
            for name, module, attr in TARGETS:
                original = getattr(sys.modules.get(f"freeferm.{module}"), attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrapper(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            self._patched.append((m, key, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        work = _WORK.get(name)
        scheme_of = None
        if name == "sampling.estimate_gamma":
            sig = inspect.signature(fn)
            scheme_of = lambda a, k: sig.bind(*a, **k).arguments.get("scheme")  # noqa: E731

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"{name}.{scheme_of(args, kwargs)}" if scheme_of else name
            sid = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else None
            frame = [sid, 0.0]
            self._open.append(frame)
            result = None
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = name == "cli.main" and result != 0  # an exit code
                return result
            finally:
                end = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                count = work(args, kwargs, result) if work and not error else 0
                self.spans.append(Span(sid, span_name, start, end, parent, self.request,
                                       end - start - frame[1], error, count))

        return wrapper

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def summarize(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Per-span, per-layer and work-count metrics of spans covering ``wall_s``."""
    by_id = {s.id: s for s in spans}
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        sel = [s for s in spans if s.name == name]
        out[f"{name}.calls"] = len(sel)
        out[f"{name}.total_s"] = sum(s.end - s.start for s in sel)
        out[f"{name}.self_s"] = sum(s.self_s for s in sel)
    for layer in LAYERS:
        sel = [s for s in spans if layer_of(s.name) == layer]
        self_s = sum(s.self_s for s in sel)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / wall_s
        # an exception leaving nested spans of one layer counts once
        out[f"{layer}.errors"] = sum(
            1 for s in sel
            if s.error and not (s.parent in by_id and by_id[s.parent].error
                                and layer_of(by_id[s.parent].name) == layer)
        )
    for metric, prefix in COUNTS.items():
        out[metric] = sum(s.work for s in spans if s.name.startswith(prefix))
    return out
