"""Self-test of the benchmark itself (not of freeferm).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _public_functions():
    return {(name, key): id(value)
            for name, module in sys.modules.items()
            if name == "freeferm" or name.startswith("freeferm.")
            for key, value in vars(module).items() if callable(value)}


@pytest.fixture
def out_path(tmp_path):
    return str(tmp_path / "record.json")


def _cycle(name, seed=3):
    wl = workloads.Workload(name, seed)
    return [wl.request(i) for i in range(wl.cycle)]


def _steady_host(first, last, kernel_s=hostspeed.REF_S):
    """Kernel passes of one duration, every 0.05 s from ``first`` to ``last``."""
    return [(first + 0.05 * k, kernel_s) for k in range(int((last - first) / 0.05) + 1)]


def test_traced_outputs_equal_untraced_apart_from_wall_time(out_path):
    for name in run.WORKLOADS:
        for req in _cycle(name):
            tally = run.Tally()
            _, plain = tally.execute(req, out_path)
            with tracer.Tracer() as t:
                _, traced = tally.execute(req, out_path)
            assert tally.failed == 0 and tally.passed == tally.checked == 2, req.kind
            assert t.spans, req.kind
            assert run._comparable(traced) == run._comparable(plain), req.kind


def test_every_wrapper_is_restored():
    from freeferm import cli, learning, sampling

    before = _public_functions()
    original = sampling.estimate_gamma
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as t:
            assert not t.missing
            # module attribute and both from-import aliases share one wrapper
            assert sampling.estimate_gamma is not original
            assert cli.estimate_gamma is learning.estimate_gamma is sampling.estimate_gamma
            raise RuntimeError("leaving the block by an exception restores too")
    assert _public_functions() == before
    assert cli.estimate_gamma is original


def test_layer_self_times_fit_in_traced_wall_time(out_path):
    for name in run.WORKLOADS:
        tally = run.Tally()
        with tracer.Tracer() as t:
            wall = sum(tally.execute(req, out_path)[0] for req in _cycle(name))
        values = tracer.summarize(t.spans, wall)
        layer_self = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert 0.0 < layer_self <= wall, name


def test_traced_run_reports_per_pass_medians(out_path):
    tally = run.Tally()
    values, mismatches = run.traced_run(workloads.Workload("oracle", 5), 0.0, out_path, tally,
                                        tracer.Tracer())
    assert mismatches == 0 and tally.failed == 0
    assert tally.attempted == 2 * run.MIN_PASS_PAIRS * workloads.CYCLES["oracle"]
    assert values["cli.main.calls"] == workloads.CYCLES["oracle"]
    assert values["dense.gaussian_unitary.calls"] > 0
    assert values["sampling.estimate_gamma.pauli_pairs.calls"] == 0
    assert "trace.overhead" in values


def test_spans_nest_and_self_time_excludes_children(out_path):
    req = _cycle("oracle")[2]  # test-rank
    with tracer.Tracer() as t:
        t.request = 7
        run.Tally().execute(req, out_path)
    by_id = {s.id: s for s in t.spans}
    root = [s for s in t.spans if s.parent is None]
    assert [s.name for s in root] == ["cli.main"]
    for s in t.spans:
        assert s.request == 7
        children = [c for c in t.spans if c.parent == s.id]
        assert s.self_s == pytest.approx(
            (s.end - s.start) - sum(c.end - c.start for c in children), abs=1e-9)
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end


def test_invalid_request_lands_in_failed_fraction(out_path):
    tally = run.Tally()
    good, bad = _cycle("oracle")[1], workloads.Request(
        "verify-bounds", ("verify-bounds", "--modes", "0", "--seed", "1"))
    latency, _ = tally.execute(good, out_path)
    assert tally.execute(bad, out_path) == (None, None)
    assert (tally.attempted, tally.failed, tally.checked, tally.passed) == (2, 1, 1, 1)
    values, notes = run.end_to_end({good.kind: [(1.0, latency, tally.cpu_s)]},
                                   _steady_host(0.0, 2.0), tally, [(0.5, hostspeed.REF_S, 0.6)])
    assert values["completed_fraction"] == 0.5
    assert values["ok_fraction"] == 1.0
    assert notes["completed_fraction"].startswith("failed_fraction 0.5 ")
    assert any("RequestFailed" in p and "exit code 2" in p for p in tally.problems)


def test_failed_output_check_is_counted(out_path, monkeypatch):
    req = _cycle("scale")[0]  # tomo-mixed, checked against the 64-mode shot budget
    monkeypatch.setattr(workloads, "TOMO_MODES", 63)
    tally = run.Tally()
    tally.execute(req, out_path)
    assert (tally.failed, tally.checked, tally.passed) == (0, 1, 0)
    assert tally.problems == {"tomo-mixed: output check failed": 1}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = run.Tally()
    tally.attempted = tally.checked = tally.passed = 1
    values, _ = run.end_to_end({"a": [(1.0, 0.1, 0.1)]}, _steady_host(0.0, 2.0), tally,
                               [(0.5, hostspeed.REF_S, 0.6)])
    assert set(values) == {m["name"] for m in spec["end_to_end"]}
    layer = set(tracer.summarize([], 1.0)) | {"trace.overhead"} | {n for n, _ in sweep.cases(0)}
    assert layer == {m["name"] for m in spec["per_layer"]}


def test_p50_is_the_median_of_per_kind_medians():
    tally = run.Tally()
    tally.attempted = tally.checked = tally.passed = 4
    spans = {"a": [(1.0, 0.1, 0.1), (2.0, 0.2, 0.2), (3.0, 0.9, 0.9)], "b": [(4.0, 0.3, 0.3)]}
    ref = hostspeed.REF_S
    setups = [(0.5, ref, 0.9), (0.4, ref, 0.6), (0.7, 2 * ref, 1.4)]
    values, _ = run.end_to_end(spans, _steady_host(0.0, 5.0), tally, setups)
    assert values["setup_s"] == pytest.approx(0.4)  # median of 0.5, 0.4 and 0.35
    assert values["request_ref_s.p50"] == pytest.approx(0.25)
    assert values["request_ref_s.tail"] == pytest.approx(0.1)  # fewer than ten beyond: all but one
    assert values["requests_per_ref_s"] == pytest.approx(4 / 1.5)


def test_host_speed_cancels_and_program_speed_shows():
    spans = [(1.0, 0.2, 0.2), (2.0, 0.04, 0.04)]
    quiet = hostspeed.normalize(spans, _steady_host(0.0, 3.0))
    assert quiet == pytest.approx([0.2, 0.04])
    # every instruction twice as slow: kernel and requests alike
    slow = [(2 * t, 2 * wall, 2 * cpu) for t, wall, cpu in spans]
    assert hostspeed.normalize(slow, _steady_host(0.0, 6.0, 2 * hostspeed.REF_S)) == \
        pytest.approx(quiet)
    # a burst of load around the second request only
    burst = [(m, k * (2 if 1.9 < m < 2.2 else 1)) for m, k in _steady_host(0.0, 3.0)]
    assert hostspeed.normalize([spans[0], (2.0, 0.08, 0.08)], burst) == pytest.approx(quiet)
    # time the process was not running (host steal, preemption) is not counted
    assert hostspeed.normalize([(1.0, 0.5, 0.2), (2.0, 0.3, 0.04)], _steady_host(0.0, 3.0)) == \
        pytest.approx(quiet)
    # the program twice as fast on the same host
    fast = [(t, wall / 2, cpu / 2) for t, wall, cpu in spans]
    assert hostspeed.normalize(fast, _steady_host(0.0, 3.0)) == \
        pytest.approx([x / 2 for x in quiet])
    with pytest.raises(ValueError):
        hostspeed.normalize([(9.0, 0.1, 0.1)], _steady_host(0.0, 3.0))


def test_timed_loop_times_the_kernel_around_every_request(out_path):
    tally = run.Tally()
    spans, calibrations = run.timed_loop(workloads.Workload("oracle", 5), 0.2, out_path, tally)
    completed = sum(len(v) for v in spans.values())
    assert completed >= 1 and len(calibrations) == tally.attempted + 1
    assert len(hostspeed.normalize([s for v in spans.values() for s in v], calibrations)) == \
        completed


def test_workload_inputs_follow_the_seed():
    a, b, c = (workloads.Workload("scale", s) for s in (4, 4, 5))
    assert a.request(0) == b.request(0) and a.request(0) != c.request(0)
    assert all((x.g_mixed == y.g_mixed).all() for x, y in zip(a.queries, b.queries))
    assert not any("--workers" in r.argv for n in run.WORKLOADS for r in _cycle(n))
    assert set(run.WORKLOADS) == set(workloads.CYCLES)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
