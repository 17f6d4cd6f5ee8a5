"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""
from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.pin_environment()

import run  # noqa: E402
import serve  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert common.tail_percentile(n) == expected


def test_tail_falls_back_to_max_below_twenty_samples():
    assert common.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    label, value = common.tail(list(range(100)))
    assert label == "p90" and value == pytest.approx(89.1)


@pytest.mark.parametrize("name", ["setup_s", "serve.p99_ms.heavy",
                                  "backends.numpy.plus_scan_ms", "a-b_c.9"])
def test_metric_name_pattern_accepts(name):
    assert common.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "distributed:2", "p99%",
                                  "x/y", "ms\n"])
def test_metric_name_pattern_rejects(name):
    with pytest.raises(ValueError):
        common.check_metric_name(name)


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == run.per_layer_units()
    for name in list(e2e) + list(per_layer):
        common.check_metric_name(name)


def test_schedule_is_seeded():
    a = serve.schedule(7, 1000.0, 500)
    assert np.array_equal(a, serve.schedule(7, 1000.0, 500))
    assert not np.array_equal(a, serve.schedule(8, 1000.0, 500))
    assert np.all(np.diff(a) > 0)
    # Poisson arrivals at the stated rate
    assert 500 / a[-1] == pytest.approx(1000.0, rel=0.15)


def test_traffic_is_seeded():
    def frames(seed):
        reqs, due = serve.Traffic(seed).draw(300.0, 200)
        return [serve.encode(i, r) for i, r in enumerate(reqs)], due

    (fa, da), (fb, db) = frames(3), frames(3)
    assert fa == fb and np.array_equal(da, db)
    assert frames(4)[0] != fa


def test_traffic_repeats_earlier_payloads():
    reqs = serve.make_requests(np.random.default_rng(0), 2000)
    distinct = {serve.encode(0, r) for r in reqs}
    share = 1 - len(distinct) / len(reqs)
    assert 0.1 < share < 0.3
    assert all(serve.MIN_SIZE <= len(r[1]) <= serve.MAX_SIZE for r in reqs)


def _ok_line(i: int, values: np.ndarray) -> bytes:
    return (json.dumps({"id": i, "ok": True, "values": values.tolist(),
                        "dtype": "int64"}) + "\n").encode()


def test_injected_corruption_counts_as_a_failure():
    reqs, _ = serve.Traffic(1).draw(300.0, 50)
    lines = [_ok_line(i, serve.reference(r)) for i, r in enumerate(reqs)]
    assert serve.check_responses(reqs, lines) == ([], [])
    k = 17
    bad = serve.reference(reqs[k]).copy()
    bad[len(bad) // 2] += 1
    lines[k] = _ok_line(k, bad)
    lines[3] = None
    assert serve.check_responses(reqs, lines) == ([3], [k])


def test_references_match_the_program():
    from repro.core import scans, segmented
    from repro.machine import Machine

    rng = np.random.default_rng(5)
    m = Machine("scan")
    v = rng.integers(0, 1 << 20, 997, dtype=np.int64)
    f = rng.random(997) < 0.1
    f[0] = True
    x = rng.standard_normal(997)
    x[::97] = np.nan
    assert common.bit_equal(scans.plus_scan(m.vector(v)).data,
                            common.ref_plus_scan(v))
    assert common.bit_equal(scans.max_scan(m.vector(x)).data,
                            common.ref_max_scan(x, -np.inf))
    assert common.bit_equal(
        segmented.seg_plus_scan(m.vector(v), m.flags(f)).data,
        common.ref_seg_plus_scan(v, f))
    assert common.bit_equal(
        segmented.seg_max_scan(m.vector(v), m.flags(f)).data,
        common.ref_seg_max_scan(v, f))


def test_one_element_corruption_changes_the_digest():
    v = np.arange(1000, dtype=np.int64)
    w = v.copy()
    w[500] ^= 1
    assert common.digest(v) == common.digest(v.copy())
    assert common.digest(v) != common.digest(w)
    assert not common.bit_equal(v, w)
    nan = np.array([np.nan, 1.0])
    assert common.bit_equal(nan, nan.copy())
