"""The differential conformance fuzzer itself (repro.verify)."""
import dataclasses
import json

import numpy as np
import pytest

from repro import Machine
from repro.cli import main
from repro.core import scans
from repro.observe.metrics import registry
from repro.verify import (DEFAULT_ENGINES, OPS, Case, ConformanceReport,
                          generate_cases, load_corpus, results_equal,
                          run_case, run_cases, shrink)


# --------------------------------------------------------------------- #
# Corpus generation and serialization
# --------------------------------------------------------------------- #

class TestGeneration:
    def test_same_seed_same_cases(self):
        # compare serialized: NaN payloads defeat dataclass == by design
        first = [c.to_json() for c in generate_cases(7, 60)]
        again = [c.to_json() for c in generate_cases(7, 60)]
        assert first == again

    def test_different_seeds_differ(self):
        a = [c.to_json() for c in generate_cases(1, 60)]
        b = [c.to_json() for c in generate_cases(2, 60)]
        assert a != b

    def test_round_robin_covers_every_op(self):
        combos = sum(len(spec.dtypes) for spec in OPS.values())
        cases = generate_cases(0, combos)
        assert {c.op for c in cases} == set(OPS)

    def test_op_restriction(self):
        cases = generate_cases(0, 10, ops=["plus_scan"])
        assert {c.op for c in cases} == {"plus_scan"}

    def test_dtype_restriction(self):
        cases = generate_cases(0, 10, ops=["min_scan"], dtypes=["uint8"])
        assert {c.dtype for c in cases} == {"uint8"}

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown operation"):
            generate_cases(0, 5, ops=["frobnicate_scan"])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            generate_cases(0, 5, ops=["segment_ids"], dtypes=["int64"])

    def test_segmented_cases_carry_layouts(self):
        cases = generate_cases(0, 400, ops=["seg_plus_scan"])
        assert all(c.seg_lengths is not None for c in cases)
        assert all(sum(c.seg_lengths) == len(c.values) for c in cases)

    def test_adversarial_shapes_present(self):
        cases = generate_cases(0, 400, ops=["plus_scan"], dtypes=["int64"])
        lengths = {len(c.values) for c in cases}
        assert 0 in lengths and 1 in lengths


class TestCaseSerialization:
    def test_round_trip_plain(self):
        c = Case(op="seg_split3", dtype="int8", values=(-128, 127, 0),
                 seg_lengths=(2, 1), flags=(True, False, False),
                 flags2=(False, True, False), note="x")
        assert Case.from_json_dict(json.loads(c.to_json())) == c

    def test_round_trip_float_specials(self):
        c = Case(op="max_scan", dtype="float64",
                 values=("nan", "inf", "-inf", "-0.0", 1.5))
        again = Case.from_json_dict(json.loads(c.to_json()))
        mat = again.materialize()
        assert np.isnan(mat.values[0])
        assert mat.values[1] == np.inf and mat.values[2] == -np.inf
        assert np.signbit(mat.values[3])

    def test_materialize_builds_flags_from_lengths(self):
        mat = Case(op="seg_plus_scan", dtype="int64", values=(1, 2, 3),
                   seg_lengths=(2, 1)).materialize()
        assert mat.seg_flags.tolist() == [True, False, True]

    def test_materialize_rejects_bad_lengths(self):
        bad = Case(op="seg_plus_scan", dtype="int64", values=(1, 2, 3),
                   seg_lengths=(2, 2))
        with pytest.raises(ValueError, match="seg_lengths"):
            bad.materialize()


# --------------------------------------------------------------------- #
# The comparison contract
# --------------------------------------------------------------------- #

class TestResultsEqual:
    def test_integers_bit_exact(self):
        spec = OPS["plus_scan"]
        assert results_equal(spec, np.array([1, 2]), np.array([1, 2]))
        assert not results_equal(spec, np.array([1, 2]), np.array([1, 3]))

    def test_bool_vector_must_stay_bool(self):
        spec = OPS["or_scan"]
        assert not results_equal(spec, np.array([False, True]),
                                 np.array([0, 1]))

    def test_float_nan_aware(self):
        spec = OPS["max_scan"]  # non-additive: bit equality, NaN == NaN
        a = np.array([np.nan, 1.0])
        assert results_equal(spec, a, a.copy())
        assert not results_equal(spec, a, np.array([np.nan, 1.0 + 1e-15]))

    def test_signed_zero_compares_by_value_not_bits(self):
        """The max family is bit-exact *up to the sign of zero*: engines
        really differ there (this witness gives 0.0 at index 5 on numpy
        and -0.0 on blocked:4), and np.array_equal counts them equal."""
        spec = OPS["max_scan"]
        a, b = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
        assert np.signbit(b[0]) and results_equal(spec, a, b)
        witness = [0.0, -1.5, 0.0, -0.0, 0.0, -1.5, 1.0, -np.inf]
        got = []
        for engine in ("numpy", "blocked:4"):
            m = Machine("scan", backend=engine)
            got.append(scans.max_scan(m.vector(witness)).data)
        assert results_equal(spec, *got)

    def test_additive_float_tolerant(self):
        spec = OPS["plus_scan"]
        a = np.array([0.1, 0.30000000000000004])
        b = np.array([0.1, 0.3])
        assert results_equal(spec, a, b)
        assert not results_equal(spec, a, np.array([0.1, 0.4]))

    def test_shape_mismatch_fails(self):
        spec = OPS["plus_scan"]
        assert not results_equal(spec, np.array([1]), np.array([1, 2]))


# --------------------------------------------------------------------- #
# The differential runner
# --------------------------------------------------------------------- #

class TestRunner:
    def test_clean_case_has_no_divergences(self):
        out = run_case(Case(op="min_scan", dtype="int64",
                            values=(-(2**63), 5, -1)))
        assert out.ok

    def test_step_charges_identical_across_engines(self):
        # implied by run_case, but assert the mechanism directly
        from repro import Machine
        from repro.core import scans

        charges = []
        for engine in DEFAULT_ENGINES:
            m = Machine("scan", backend=engine)
            scans.min_scan(m.vector([3, 1, 2]))
            charges.append(dict(m.counter.by_kind))
        assert all(c == charges[0] for c in charges)

    def test_documented_nan_departure_held_cross_engine(self):
        # seg_min_scan's rank construction orders NaN as largest; the
        # serial oracle propagates it.  With NaN actually present the
        # oracle abstains (nan_ok=False) and every engine is held to
        # the first engine's answer instead — the documented departure
        # is not a conformance bug, while a chunk-boundary carry bug in
        # any one engine still diverges (the corpus' NaN
        # counterexamples rely on exactly this).
        out = run_case(Case(op="seg_min_scan", dtype="float64",
                            values=(1.0, "nan", 0.5), seg_lengths=(3,)))
        assert out.ok
        assert not OPS["seg_min_scan"].nan_ok

    def test_oracle_still_binds_without_nan(self):
        # the abstention is NaN-presence-gated, not op-gated: the same
        # op with finite floats is checked against the serial oracle
        out = run_case(Case(op="seg_min_scan", dtype="float64",
                            values=(1.0, "inf", 0.5), seg_lengths=(3,)))
        assert out.ok

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError, match="unknown op"):
            run_case(Case(op="nope", dtype="int64", values=(1,)))

    def test_every_op_smoke_small(self):
        cases = generate_cases(11, sum(len(s.dtypes) for s in OPS.values()))
        outs = run_cases(cases)
        bad = [d for o in outs for d in o.divergences]
        assert bad == [], "\n".join(d.describe() for d in bad[:5])


# --------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------- #

class TestShrink:
    def test_shrinks_to_minimal_witness(self):
        big = Case(op="plus_scan", dtype="int64",
                   values=tuple(range(40)) + (13,) + tuple(range(40)))
        small = shrink(big, still_fails=lambda c: 13 in c.values)
        assert small.values == (13,)

    def test_collapses_segment_layout(self):
        big = Case(op="seg_plus_scan", dtype="int64",
                   values=(5, 5, 5, 5), seg_lengths=(1, 1, 1, 1))
        small = shrink(big, still_fails=lambda c: len(c.values) >= 2)
        assert small.seg_lengths == (len(small.values),)
        assert sum(small.seg_lengths) == len(small.values)

    def test_simplifies_values_and_flags(self):
        big = Case(op="seg_split", dtype="int64", values=(7, 9),
                   seg_lengths=(2,), flags=(True, True))
        small = shrink(big, still_fails=lambda c: len(c.values) == 2)
        assert small.values == (0, 0)
        assert small.flags == (False, False)

    def test_shrunk_case_still_fails(self):
        pred = lambda c: sum(1 for v in c.values if v) >= 2
        big = Case(op="plus_scan", dtype="int64", values=tuple(range(30)))
        small = shrink(big, still_fails=pred)
        assert pred(small) and len(small.values) == 2

    def test_respects_eval_budget(self):
        calls = []

        def pred(c):
            calls.append(1)
            return True

        shrink(Case(op="plus_scan", dtype="int64",
                    values=tuple(range(100))), still_fails=pred,
               max_evals=25)
        assert len(calls) <= 25


# --------------------------------------------------------------------- #
# Reporting and metrics
# --------------------------------------------------------------------- #

class TestReport:
    def test_matrix_counts_and_render(self):
        rep = ConformanceReport(engines=DEFAULT_ENGINES)
        rep.record_all(run_cases(generate_cases(0, 12, ops=["plus_scan"])))
        assert rep.total_cases == 12
        assert rep.ok
        table = rep.render_table()
        assert "plus_scan" in table and "all engines agree" in table

    def test_divergence_counted_and_rendered(self, monkeypatch):
        # force a divergence by breaking the oracle: every engine then
        # disagrees with it, exercising the failure-reporting path
        spec = OPS["plus_scan"]
        monkeypatch.setitem(OPS, "plus_scan", dataclasses.replace(
            spec, oracle=lambda mat: spec.oracle(mat) + 1))
        rep = ConformanceReport(engines=DEFAULT_ENGINES)
        rep.record(run_case(Case(op="plus_scan", dtype="int64",
                                 values=(1, 2, 3))))
        assert not rep.ok and rep.total_failures == 1
        assert "divergent" in rep.render_table()
        d = rep.to_json_dict()
        assert d["ok"] is False and d["divergences"]

    def test_metrics_counters_flow(self):
        before = registry.counter("verify.cases").value
        rep = ConformanceReport(engines=DEFAULT_ENGINES)
        rep.record_all(run_cases(generate_cases(0, 3, ops=["or_scan"])))
        assert registry.counter("verify.cases").value == before + 3


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

class TestVerifyCLI:
    def test_clean_run_exits_zero(self, capsys):
        rc = main(["verify", "--cases", "12", "--seed", "3", "--no-corpus"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all engines agree" in out

    def test_restricted_run(self, capsys):
        rc = main(["verify", "--cases", "6", "--no-corpus",
                   "--ops", "min_scan,or_scan", "--dtypes", "int8,uint8"])
        assert rc == 0
        assert "min_scan" in capsys.readouterr().out

    def test_json_export(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--cases", "6", "--no-corpus",
                   "--export", "json", "-o", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["ok"] is True

    def test_divergence_exits_nonzero_and_writes_artifact(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        spec = OPS["plus_scan"]
        monkeypatch.setitem(OPS, "plus_scan", dataclasses.replace(
            spec, oracle=lambda mat: spec.oracle(mat) + 1))
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "forced-divergence.json").write_text(json.dumps({
            "op": "plus_scan", "dtype": "int64", "values": [1, 2, 3]}))
        artifact = tmp_path / "counterexamples.json"
        rc = main(["verify", "--cases", "0",
                   "--corpus-dir", str(corpus),
                   "--artifact", str(artifact)])
        assert rc == 1
        payload = json.loads(artifact.read_text())
        assert payload["counterexamples"]
        assert payload["report"]["ok"] is False
        assert "shrinking" in capsys.readouterr().out

    def test_replays_committed_corpus(self, capsys):
        rc = main(["verify", "--cases", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert len(load_corpus()) >= 15
