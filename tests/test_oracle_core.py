import numpy as np
import pytest

from orc import reductions
from orc.bodies import (Ball, BoxBody, ExactMembership, ExactOptimization,
                        ExactSeparation, ExactValidity)
from orc.core import (EVAL, GRAD, MEM, OPT, SEP, STACK_KINDS, VAL, VIOL,
                      EmptyInteriorPropagated, MembershipAnswer,
                      OptimizationAnswer, ProblemGeometry, QueryLedger,
                      RandomStream, SeparationAnswer, ValidityAnswer,
                      check_precision, rows_of, single_of, wrap_with_ledger)
from orc.geometry import HalfSpace


def test_check_precision_bounds():
    check_precision(1e-6)
    check_precision(0.49)
    for bad in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(ValueError):
            check_precision(bad)


def test_problem_geometry_kappa_and_rescale():
    g = ProblemGeometry(3, 0.5, 2.0)
    assert g.kappa == 4.0
    np.testing.assert_array_equal(g.center, np.zeros(3))
    scaled = g.rescaled()
    assert scaled.r == 0.25 and scaled.R == 1.0
    assert scaled.kappa == 4.0


def test_problem_geometry_rejects_bad_radii():
    with pytest.raises(ValueError):
        ProblemGeometry(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        ProblemGeometry(2, 2.0, 1.0)


def test_membership_answer_inside_flag():
    assert MembershipAnswer.INSIDE_DILATED.inside
    assert not MembershipAnswer.OUTSIDE_ERODED.inside


def test_separation_answer_variants():
    assert SeparationAnswer().halfspace is None
    h = HalfSpace(np.array([1.0, 0.0]), np.zeros(2), 0.0)
    assert SeparationAnswer(h).halfspace is h


def test_ledger_counts_by_kind_and_delta():
    # queries at different deltas land in one count per kind
    ledger = QueryLedger()
    mem = wrap_with_ledger(ExactMembership(Ball(np.zeros(2), 1.0)), ledger)
    for delta in (0.01, 0.01, 0.02):
        mem(np.zeros(2), delta)
    ledger.record(SEP, count=5)
    assert ledger.count(MEM) == 3
    assert ledger.count(SEP) == 5
    assert ledger.count(OPT) == 0
    assert ledger.totals() == {MEM: 3, SEP: 5}


def test_ledger_merge_folds_counts():
    a, b = QueryLedger(), QueryLedger()
    a.record(MEM, 2)
    b.record(MEM, 3)
    b.record(SEP, 1)
    a.merge(b)
    assert a.count(MEM) == 5
    assert a.count(SEP) == 1


def test_wrap_with_ledger_counts_every_call():
    ledger = QueryLedger()
    mem = wrap_with_ledger(ExactMembership(Ball(np.zeros(2), 1.0)), ledger)
    for _ in range(7):
        mem(np.zeros(2), 0.01)
    assert ledger.count(MEM) == 7


def test_wrap_with_ledger_counts_a_stack_as_one_query_per_row():
    ledger = QueryLedger()
    opt = wrap_with_ledger(ExactOptimization(Ball(np.zeros(2), 1.0)), ledger)
    opt.rows(np.eye(2), 0.01)
    opt.rows(np.ones((3, 2)), 0.01)
    opt(np.ones(2), 0.01)
    assert ledger.count(OPT) == 6
    # feature detection sees no stack form where the oracle has none
    assert not hasattr(wrap_with_ledger(ExactSeparation(Ball(np.zeros(2), 1.0)), ledger), "rows")
    # MEM's stack form counts the same way: one query per row
    mem = wrap_with_ledger(ExactMembership(Ball(np.zeros(2), 1.0)), ledger)
    assert mem.rows(np.array([[0.1, 0.0], [2.0, 0.0], [0.0, -0.5]]), 0.01).tolist() == [
        True, False, True]
    assert ledger.count(MEM) == 3


def _stack_oracles():
    """An exact oracle with a `rows` form for each stack kind, and the
    arguments of one stack query: the same (7, 3) stack for all kinds."""
    spec = BoxBody(np.array([0.2, -0.1, 0.3]), 0.7)
    gen = np.random.default_rng(21)
    S = gen.normal(size=(7, 3))
    S[2] = 0.0
    gammas = gen.normal(size=7)
    exact = {MEM: ExactMembership(spec), VAL: ExactValidity(spec),
             OPT: ExactOptimization(spec),
             EVAL: reductions.support_eval_from_opt(ExactOptimization(spec), spec.geometry)}
    return S, {kind: (oracle, (S, gammas, 0.01) if kind == VAL else (S, 0.01))
               for kind, oracle in exact.items()}


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_rows_of_falls_back_to_one_query_per_row(kind):
    S, oracles = _stack_oracles()
    exact, args = oracles[kind]
    assert rows_of(exact, kind) == exact.rows
    log = []

    def plain(c, *rest):
        log.append(c.tobytes())
        return exact(c, *rest)

    stack = rows_of(plain, kind)(*args)
    expected = exact.rows(*args)
    assert stack.dtype == expected.dtype
    np.testing.assert_array_equal(stack, expected)
    assert log == [row.tobytes() for row in S]
    # the ledger counts one query per row of each stack, over either form
    for oracle in (plain, exact):
        ledger = QueryLedger()
        counted = wrap_with_ledger(oracle, ledger, kind)
        counted.rows(*args)
        counted.rows(*args)
        assert ledger.totals() == {kind: 2 * len(S)}


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_single_of_is_rows_on_a_stack_of_one(kind):
    S, oracles = _stack_oracles()
    exact, args = oracles[kind]
    asked = []

    def rows(*stack_args):
        asked.append(stack_args[0].shape)
        return exact.rows(*stack_args)

    single = single_of(kind, rows, 3)
    assert single.kind == kind and single.rows is rows
    for i, s in enumerate(S):
        row_args = (S[i:i + 1], args[1][i:i + 1], 0.01) if kind == VAL else (S[i:i + 1], 0.01)
        expected = exact.rows(*row_args)[0]
        answer = single(s, args[1][i], 0.01) if kind == VAL else single(s, 0.01)
        if kind == MEM:
            assert answer is (MembershipAnswer.INSIDE_DILATED if expected
                              else MembershipAnswer.OUTSIDE_ERODED)
        elif kind == VAL:
            assert answer is (ValidityAnswer.SOME_ABOVE if expected else ValidityAnswer.ALL_BELOW)
        elif kind == OPT:
            assert isinstance(answer, OptimizationAnswer)
            assert answer.maximizer.tobytes() == expected.tobytes()
        else:
            assert type(answer) is float and answer == expected
    assert asked == [(1, 3)] * len(S)
    # the query is checked once, before the stack form is asked
    for bad in (np.ones(2), np.ones(4), np.array([0.0, np.nan, 0.0])):
        with pytest.raises(ValueError):
            single(bad, 0.5, 0.01) if kind == VAL else single(bad, 0.01)
    assert len(asked) == len(S)


def test_single_of_refuses_a_kind_without_a_stack_form():
    for kind in (SEP, VIOL, GRAD, "nonsense"):
        with pytest.raises(ValueError, match="no stack form"):
            single_of(kind, lambda *args: None, 2)


def test_rows_of_opt_raises_on_an_empty_answer_and_refuses_sep():
    assert reductions.EmptyInteriorPropagated is EmptyInteriorPropagated
    log = []

    def empty_second(c, delta):
        log.append(c)
        return OptimizationAnswer(None if len(log) == 2 else np.zeros(2))

    with pytest.raises(EmptyInteriorPropagated):
        rows_of(empty_second, OPT)(np.eye(2), 0.01)
    with pytest.raises(ValueError, match="no stack form"):
        rows_of(ExactSeparation(Ball(np.zeros(2), 1.0)), SEP)


def test_random_stream_same_path_same_draws():
    a = RandomStream(42).child(1, 2).generator().normal(size=5)
    b = RandomStream(42).child(1, 2).generator().normal(size=5)
    np.testing.assert_array_equal(a, b)


def test_random_stream_distinct_paths_differ():
    a = RandomStream(42).child(1).generator().normal(size=5)
    b = RandomStream(42).child(2).generator().normal(size=5)
    assert not np.array_equal(a, b)


def test_random_stream_string_labels_deterministic():
    a = RandomStream(7).child("query").generator().normal(size=3)
    b = RandomStream(7).child("query").generator().normal(size=3)
    c = RandomStream(7).child("other").generator().normal(size=3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
