"""Property tests over random inputs drawn by hypothesis.

Derandomized and without an example database, so every run draws the same
examples.
"""

from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from latticelab import (  # noqa: E402
    build_lattice,
    bruteforce_isomorphic,
    direct_sum_forms,
    discriminant_form,
    form_from_symbol,
    is_isomorphic,
    negate_form,
    short_vectors,
    to_symbol,
)
from latticelab.errors import DegenerateError  # noqa: E402
from latticelab.exactmat import mat_mul, transpose  # noqa: E402
from test_exactmat import naive_det  # noqa: E402
from test_nikulin import filtered_saturation_data, saturation_data  # noqa: E402
from test_shortvec import box_radii, naive_box_vectors  # noqa: E402

# group order bound of every property, small enough for the brute-force oracles
MAX_ORDER = 256


@st.composite
def even_grams(draw):
    """A symmetric integer matrix of rank 1 to 3 with even diagonal."""
    n = draw(st.integers(1, 3))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    return gram


@st.composite
def definite_grams(draw):
    """B B^T or -B B^T for a nonsingular integer B of rank 1 to 4."""
    n = draw(st.integers(1, 4))
    b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    assume(naive_det(b) != 0)
    gram = mat_mul(b, transpose(b))
    if draw(st.booleans()):
        gram = [[-x for x in row] for row in gram]
    return gram


def _form(gram):
    try:
        return discriminant_form(build_lattice(gram))
    except DegenerateError:
        assume(False)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(even_grams(), even_grams())
def test_saturations_of_random_lattice_pairs(gram_s, gram_r):
    """The graph search equals the isotropic filter, and every witness
    satisfies |H-perp/H| * |H|^2 = |A_S + A_R|."""
    q_s, q_r = _form(gram_s), _form(gram_r)
    order = q_s.order * q_r.order
    assume(order <= MAX_ORDER)
    data = saturation_data(q_s, q_r)
    assert data == filtered_saturation_data(q_s, q_r)
    for index, _, _, orders, _, _, _ in data:
        assert prod(orders) * index ** 2 == order


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(even_grams())
def test_symbol_round_trip(gram):
    """The form built from a symbol has that symbol and is isometric to the
    form the symbol came from."""
    q = _form(gram)
    assume(q.order <= MAX_ORDER)
    sym = to_symbol(q)
    rebuilt = form_from_symbol(sym)
    assert to_symbol(rebuilt) == sym
    assert bruteforce_isomorphic(rebuilt, q)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(even_grams(), even_grams())
def test_isomorphism_matches_bruteforce(gram_1, gram_2):
    """Symbol equality decides isometry on pairs of equal order: q_1 against
    -q_1, q_1 + q_2 against q_1 + (-q_2), and q_1 against q_2 when their
    orders agree."""
    q_1, q_2 = _form(gram_1), _form(gram_2)
    assume(q_1.order * q_2.order <= MAX_ORDER)
    pairs = [(q_1, negate_form(q_1)),
             (direct_sum_forms(q_1, q_2), direct_sum_forms(q_1, negate_form(q_2)))]
    if q_1.order == q_2.order:
        pairs.append((q_1, q_2))
    for f_1, f_2 in pairs:
        assert is_isomorphic(f_1, f_2) == bruteforce_isomorphic(f_1, f_2)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(definite_grams(), st.integers(1, 12))
def test_short_vectors_match_box_scan(gram, size):
    """The integer descent lists exactly the vectors of the box scan."""
    norm = size if gram[0][0] > 0 else -size
    assume(prod(2 * r + 1 for r in box_radii(gram, norm)) <= 5000)
    assert short_vectors(build_lattice(gram), norm) == naive_box_vectors(gram, norm)
