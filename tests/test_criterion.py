"""The integrality criterion in one direction, over Z: a system that
``classify`` puts in Case I has integral q_k, q_L and z(q).

Three sources of systems: Hypothesis draws of small balanced systems in
one, two and three variables; cubic-3d, (3a+3b+3c)!/(a!^3 b!^3 c!^3); and
the one-variable hypergeometric Calabi-Yau families whose mirror maps are
published as integral (Lian-Yau; Krattenthaler-Rivoal, Duke Math. J. 2010).
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from mirrorint.forms import FormSystem
from mirrorint.landau import Tag, classify
from mirrorint.mirror import build_bundle, integrality_scan


def _assert_integral_bundle(sys, order):
    bundle = build_bundle(sys, order)
    named = (
        [(f"q_{k + 1}", s) for k, s in enumerate(bundle.q)]
        + [(f"qL_{L}", s) for L, s in bundle.qL.items()]
        + [(f"z_{k + 1}", s) for k, s in enumerate(bundle.zofq)]
    )
    for name, series in named:
        scan = integrality_scan(series)
        assert scan.ok, (sys, order, name, scan.violations[0])


@st.composite
def balanced_systems(draw, d, max_entry, max_e, max_f):
    """e of at most ``max_e`` nonzero vectors with entries <= ``max_entry``,
    and f of at most ``max_f`` vectors whose column sums are e's: each
    column sum is cut into ``max_f`` nonnegative parts, and zero vectors
    are dropped."""
    vec = st.tuples(*[st.integers(0, max_entry)] * d).filter(any)
    e = draw(st.lists(vec, min_size=1, max_size=max_e))
    columns = []
    for total in (sum(v[i] for v in e) for i in range(d)):
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=max_f - 1, max_size=max_f - 1)))
        columns.append([b - a for a, b in zip([0, *cuts], [*cuts, total])])
    f = [v for v in zip(*columns) if any(v)]
    assume(not set(e) & set(f))
    return FormSystem(e, f)


def _check_case_i_is_integral(sys, order):
    if classify(sys).tag is Tag.CASE_I:
        _assert_integral_bundle(sys, order)


@settings(max_examples=300, deadline=None)
@given(balanced_systems(1, max_entry=4, max_e=3, max_f=6))
def test_case_i_is_integral_in_one_variable(sys):
    _check_case_i_is_integral(sys, 8)


@settings(max_examples=300, deadline=None)
@given(balanced_systems(2, max_entry=3, max_e=2, max_f=6))
def test_case_i_is_integral_in_two_variables(sys):
    _check_case_i_is_integral(sys, 6)


@settings(max_examples=100, deadline=None)
@given(balanced_systems(3, max_entry=2, max_e=2, max_f=6))
def test_case_i_is_integral_in_three_variables(sys):
    _check_case_i_is_integral(sys, 4)


def test_cubic_3d_is_case_i_and_integral():
    units = [tuple(int(i == j) for i in range(3)) for j in range(3)]
    sys = FormSystem([(3, 3, 3)], [u for u in units for _ in range(3)])
    assert classify(sys).tag is Tag.CASE_I
    _assert_integral_bundle(sys, 8)


HYPERGEOMETRIC_CY = {
    "X_5": ([5], [1] * 5),
    "X_6": ([6], [2, 1, 1, 1, 1]),
    "X_8": ([8], [4, 1, 1, 1, 1]),
    "X_10": ([10], [5, 2, 1, 1, 1]),
    "X_3,3": ([3, 3], [1] * 6),
    "X_2,4": ([2, 4], [1] * 6),
    "X_2,2,3": ([2, 2, 3], [1] * 7),
    "X_2,2,2,2": ([2] * 4, [1] * 8),
}


@pytest.mark.parametrize("name", HYPERGEOMETRIC_CY)
def test_hypergeometric_calabi_yau_families_are_case_i_and_integral(name):
    e, f = HYPERGEOMETRIC_CY[name]
    sys = FormSystem([(a,) for a in e], [(b,) for b in f])
    assert classify(sys).tag is Tag.CASE_I
    _assert_integral_bundle(sys, 12)
