"""Property tests over random inputs drawn by hypothesis.

Derandomized and without an example database, so every run draws the same
examples.
"""

from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from latticelab import build_lattice, discriminant_form  # noqa: E402
from latticelab.errors import DegenerateError  # noqa: E402
from test_nikulin import filtered_saturation_data, saturation_data  # noqa: E402

# |A_S + A_R| bound of the saturation property
MAX_GLUE_ORDER = 256


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
    assume(order <= MAX_GLUE_ORDER)
    data = saturation_data(q_s, q_r)
    assert data == filtered_saturation_data(q_s, q_r)
    for index, _, _, orders, _, _, _ in data:
        assert prod(orders) * index ** 2 == order
