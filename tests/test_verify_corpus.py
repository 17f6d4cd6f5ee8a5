"""Replay of the committed regression corpus (tests/corpus/verify/).

Every file is a shrunken counterexample that once exposed a divergence
between an execution backend and the serial oracle.  Replaying them keeps
each fixed bug fixed; the docstring-free JSON carries a ``note`` naming
the bug so a future failure identifies itself.
"""
import pytest

from repro.verify import CORPUS_DIR, DEFAULT_ENGINES, load_corpus, run_case

CORPUS = load_corpus()

#: replayed by a test of its own on extra engines, and kept out of the
#: indexed replay below so every other case keeps its test id (which
#: carries its index)
IDENTITY_ORDER = "seg_min_scan-nan-identity-order"

BY_STEM = dict(zip((path.stem for path in sorted(CORPUS_DIR.glob("*.json"))),
                   CORPUS))
INDEXED = [case for stem, case in BY_STEM.items() if stem != IDENTITY_ORDER]

#: bugs the fuzzer crop fixed — each must have a committed witness
EXPECTED_WITNESSES = [
    "min_scan-int64-boundary",
    "min_scan-uint8-order",
    "back_min_scan-int64-boundary",
    "or_scan-negative",
    "and_scan-negative",
    "or_scan-nan",
    "seg_or_scan-negative",
    "seg_and_scan-negative",
    "seg_plus_scan-empty",
    "seg_plus_scan-uint32-promotion",
    "seg_back_plus_scan-uint32-promotion",
    "plus_distribute-int16-overflow",
    "seg_plus_distribute-int16-overflow",
    "max_reduce-float64-empty",
    "max_scan-float64-nan-carry",
    "seg_min_scan-nan-chunk-carry",
    "seg_min_scan-nan-accumulator",
    "seg_min_scan-nan-identity-order",
]


def test_corpus_directory_exists_and_is_populated():
    assert CORPUS_DIR.is_dir()
    assert len(CORPUS) >= len(EXPECTED_WITNESSES)


@pytest.mark.parametrize("stem", EXPECTED_WITNESSES)
def test_every_fixed_bug_has_a_witness(stem):
    assert (CORPUS_DIR / f"{stem}.json").is_file()


@pytest.mark.parametrize(
    "case", INDEXED,
    ids=[f"{c.op}-{c.dtype}-{i}" for i, c in enumerate(INDEXED)])
def test_corpus_case_conforms(case):
    outcome = run_case(case)
    assert outcome.ok, "\n".join(
        d.describe() for d in outcome.divergences)


def test_every_corpus_case_documents_its_bug():
    assert all(c.note for c in CORPUS)


def test_nan_identity_order_witness_crosses_chunk_four():
    """The witness's all-NaN prefix fills the first ``blocked:4`` chunk, so
    the carry into the second chunk is NaN and that chunk's own head
    opens on NaN too: replay it on 4-element blocks as well."""
    outcome = run_case(BY_STEM[IDENTITY_ORDER],
                       DEFAULT_ENGINES + ("blocked:4", "native:0:4"))
    assert outcome.ok, "\n".join(d.describe() for d in outcome.divergences)
