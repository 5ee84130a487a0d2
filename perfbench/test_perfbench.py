"""Tests of the benchmark's own logic; they do not run psilab.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import sys
import types

import pytest

from tracer import Tracer, layer_metrics, summarize
from workloads import (
    KRES_TOTALS,
    WORKLOADS,
    check_report,
    closed_form_table,
    draw_polynomial,
    round_requests,
)


def betti_report(n, d):
    table = [{"i": i, "j": j, "beta": b} for (i, j), b in sorted(closed_form_table(n, d).items())]
    return {"pass": True, "results": {"oracle": table, "formula": [dict(e) for e in table]}}


BETTI = WORKLOADS["orbit-q"][0]


def test_closed_form_matches_known_tables():
    assert closed_form_table(7, 3)[(1, 3)] == 82
    assert closed_form_table(5, 3) == {
        (0, 0): 1, (1, 3): 33, (2, 4): 95, (3, 5): 106, (4, 6): 50, (5, 7): 5, (5, 8): 2,
    }


def test_gate_accepts_a_correct_betti_report():
    assert check_report(BETTI, betti_report(7, 3)) == []


def test_gate_rejects_one_changed_betti_entry():
    report = betti_report(7, 3)
    report["results"]["oracle"][2]["beta"] += 1
    assert check_report(BETTI, report)


def test_gate_rejects_failed_verdict_even_with_right_tables():
    report = betti_report(7, 3)
    report["pass"] = False
    assert check_report(BETTI, report) == ["report pass is not true"]


def test_gate_golod_totals_and_bound():
    inst = WORKLOADS["kres-q"][0]
    good = {"pass": True, "results": {"totals": list(KRES_TOTALS), "golod_bound": list(KRES_TOTALS)}}
    assert check_report(inst, good) == []
    bad = {"pass": True, "results": {"totals": [1, 5, 43, 271], "golod_bound": [1, 5, 43, 271]}}
    assert check_report(inst, bad)


def test_gate_equivariant_dimension_must_equal_betti():
    inst = next(i for i in WORKLOADS["tor-char-q"] if i["request"].endswith("--j 5"))
    good = {"pass": True, "results": {"dimension": 106, "betti": 106}}
    assert check_report(inst, good) == []
    bad = {"pass": True, "results": {"dimension": 105, "betti": 106}}
    assert check_report(inst, bad)


def test_generator_is_seeded_and_keeps_power_sum_nonzero(tmp_path):
    a = draw_polynomial(random.Random("s"), 5, 3, "fp:1051")
    b = draw_polynomial(random.Random("s"), 5, 3, "fp:1051")
    assert a == b
    assert len(a["terms"]) == 35
    power = sum(int(t["coeff"]) for t in a["terms"] if max(t["exps"]) == 3)
    assert power % 1051 != 0
    assert all(1 <= abs(int(t["coeff"])) <= 99 for t in a["terms"])
    first = [open(p).read() for p in {r[0][-2] for r in round_requests("kres-q", 3, 0, str(tmp_path))}]
    again = [open(p).read() for p in {r[0][-2] for r in round_requests("kres-q", 3, 0, str(tmp_path))}]
    assert sorted(first) == sorted(again) and len(set(first)) == 3


def test_self_time_on_synthetic_span_tree():
    # a [0,10] -> b [1,4] -> c [2,3];  a -> b [5,9] -> b [6,8] (recursion)
    names = ["x.a", "y.b", "z.c", "y.b", "y.b"]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    parent = [-1, 0, 1, 0, 3]
    s = summarize(names, start, end, parent)
    assert s["self"]["x.a"] == pytest.approx(10 - 3 - 4)
    assert s["self"]["y.b"] == pytest.approx((3 - 1) + (4 - 2) + 2)
    assert s["self"]["z.c"] == pytest.approx(1)
    # recursion is not counted twice in a name's time
    assert s["time"]["y.b"] == pytest.approx(3 + 4)
    assert s["calls"]["y.b"] == 3
    assert s["layer_self"] == pytest.approx({"x": 3, "y": 6, "z": 1})
    # self times add up to the root's duration
    assert sum(s["layer_self"].values()) == pytest.approx(10)


@pytest.fixture
def fake_package():
    """A package `fakepsi` with one direct-import alias and one class."""
    pkg = types.ModuleType("fakepsi")
    homology = types.ModuleType("fakepsi.homology")
    cli = types.ModuleType("fakepsi.cli")
    linalg = types.ModuleType("fakepsi.linalg")

    def koszul_betti(x):
        return x + 1

    class Echelon:
        def insert(self, v):
            return v or None

        def reduce(self, v):
            return v

    homology.koszul_betti = koszul_betti
    cli.koszul_betti = koszul_betti  # as `from .homology import koszul_betti`
    cli.main = lambda x: cli.koszul_betti(x)
    linalg.Echelon = Echelon
    mods = {"fakepsi": pkg, "fakepsi.homology": homology, "fakepsi.cli": cli, "fakepsi.linalg": linalg}
    sys.modules.update(mods)
    yield mods
    for name in mods:
        sys.modules.pop(name, None)


def test_tracer_replaces_aliases_and_reports_absent_names(fake_package):
    tr = Tracer()
    tr.install("fakepsi")
    cli = fake_package["fakepsi.cli"]
    assert cli.koszul_betti is fake_package["fakepsi.homology"].koszul_betti
    assert cli.main(1) == 2
    ech = fake_package["fakepsi.linalg"].Echelon()
    ech.insert(0)
    ech.insert(5)
    assert "linalg.SpanSolver.__init__" in tr.absent
    assert "psi.orbit_span" in tr.absent
    metrics = layer_metrics(tr.summary())
    assert metrics["linalg.echelon_insert_calls"] == 2
    assert metrics["linalg.echelon_insert_pivots"] == 1
    assert metrics["linalg.insert_useful_ratio"] == 0.5
    assert metrics["linalg.spansolver_builds"] == 0
    assert metrics["homology.koszul_betti_s"] > 0
