"""The result records: immutable named tuples with value equality."""

import pytest

from disjunct import (
    BoundReport,
    ColumnPairs,
    DisjunctVerdict,
    IdentificationReport,
    OutcomeVector,
    PairAnalysis,
    SearchCertificate,
    TDNBound,
    Theorem1Certificate,
    Theorem2Audit,
    Witness,
    affine_plane_matrix,
    analyze_pairs,
    exhaustive_T,
    is_d_disjunct,
    lower_bounds,
    outcomes,
    t_dn_lower_bound,
    theorem1_certificate,
    theorem2_audit,
    verify_identification,
)

AG3 = affine_plane_matrix(3)

# (record class, its fields in order, a call that returns one)
RECORDS = [
    (Witness, ("column", "covering"), lambda: is_d_disjunct(AG3, 3).witness),
    (
        DisjunctVerdict,
        ("is_disjunct", "witness", "vacuous"),
        lambda: is_d_disjunct(AG3, 3),
    ),
    (
        ColumnPairs,
        ("column", "weight", "private", "nonprivate", "matching", "bound",
         "in_range", "bound_ok", "matching_ok"),
        lambda: analyze_pairs(AG3, 2).columns[0],
    ),
    (
        PairAnalysis,
        ("vacuous", "disjunct", "isolated", "columns", "private_total",
         "pair_budget"),
        lambda: analyze_pairs(AG3, 2),
    ),
    (
        BoundReport,
        ("d", "bassalygo", "theorem2_real", "theorem2", "conjecture_strong",
         "combined"),
        lambda: lower_bounds(4),
    ),
    (TDNBound, ("d", "n", "value", "dominant"), lambda: t_dn_lower_bound(4, 100)),
    (
        Theorem1Certificate,
        ("row", "row_degree", "union_weight", "t", "ok", "failure"),
        lambda: theorem1_certificate(AG3, 2),
    ),
    (
        Theorem2Audit,
        ("analysis", "kappa_ok", "weight_cap", "t_bound", "ok"),
        lambda: theorem2_audit(AG3, 2),
    ),
    (OutcomeVector, ("t", "mask"), lambda: outcomes(AG3, [0, 5])),
    (
        IdentificationReport,
        ("ok", "cases", "failure"),
        lambda: verify_identification(AG3, 3),
    ),
    (
        SearchCertificate,
        ("d", "t", "found", "matrix", "exhausted", "nodes"),
        lambda: exhaustive_T(1, 4)[-1],
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=IDS)
def test_record_fields_and_repr(cls, fields, make):
    record = make()
    assert type(record) is cls and cls._fields == fields
    values = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({values})"


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=IDS)
def test_record_is_immutable(cls, fields, make):
    record = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == make()


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=IDS)
def test_record_equality_and_hash_follow_the_values(cls, fields, make):
    record = make()
    again = cls(**{name: getattr(record, name) for name in fields})
    assert again == record and hash(again) == hash(record)
    assert make() == record and hash(make()) == hash(record)
    assert again._replace() == record


def test_record_defaults():
    assert DisjunctVerdict(True) == DisjunctVerdict(True, None, False)
    assert IdentificationReport(True, 3).failure is None
    assert OutcomeVector(4).mask == 0
    lemma = ColumnPairs(0, 3, 3, 0, 0)
    assert (lemma.bound, lemma.in_range, lemma.bound_ok, lemma.matching_ok) == (
        None, None, None, None
    )


@pytest.mark.parametrize(
    "t, mask, message",
    [
        (-1, 0, "t must be >= 0"),
        (-1, 5, "t must be >= 0"),
        (3, 8, "outcome bits beyond t"),
        (3, -1, "outcome bits beyond t"),
        (0, 1, "outcome bits beyond t"),
    ],
)
def test_outcome_vector_checks_its_bits(t, mask, message):
    with pytest.raises(ValueError) as exc:
        OutcomeVector(t, mask)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        OutcomeVector(3, 7)._replace(t=t, mask=mask)
    assert str(exc.value) == message
    assert OutcomeVector(3, 7)._replace(mask=5) == OutcomeVector(3, 5)
