import json

import pytest

from latticelab import (
    DiagonalAction,
    degree3_monomials,
    family_dimension,
    invariant_monomials,
    symplectic_weight_check,
)
from latticelab.casebook import data_dir
from latticelab.errors import MixedWeightClassesError


def load_cases():
    with open(data_dir() / "fu_cases.json", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def actions_of(case):
    return [DiagonalAction(g["order"], tuple(g["weights"]), g["w0"])
            for g in case["generators"]]


def test_monomial_count():
    assert len(degree3_monomials()) == 56
    assert all(sum(m) == 3 for m in degree3_monomials())


def test_bundled_dimensions():
    for case in load_cases():
        acts = actions_of(case)
        assert family_dimension(acts) == case["dim"], case["case"]


def test_bundled_symplectic_checks():
    for case in load_cases():
        acts = actions_of(case)
        mons = invariant_monomials(acts)
        for act in acts:
            assert symplectic_weight_check(act, mons), case["case"]


def test_known_counts():
    act = DiagonalAction(2, (0, 0, 0, 0, 1, 1), 0)
    assert len(invariant_monomials([act])) == 32
    assert family_dimension(act) == 32 - 20

    klein = [DiagonalAction(2, (0, 0, 0, 0, 1, 1), 0),
             DiagonalAction(2, (0, 0, 0, 1, 1, 0), 0)]
    assert len(invariant_monomials(klein)) == 20
    assert family_dimension(klein) == 8

    second6 = DiagonalAction(6, (0, 3, 2, 5, 4, 4), 0)
    assert len(invariant_monomials([second6])) == 12
    assert family_dimension(second6) == 4


def test_weight_check_examples():
    act9 = DiagonalAction(9, (0, 6, 3, 1, 4, 7), 6)
    mons = invariant_monomials([act9])
    assert symplectic_weight_check(act9, mons)

    # the triple-cover action fixing the sum of cubes is not symplectic
    act3 = DiagonalAction(3, (1, 0, 0, 0, 0, 0), 0)
    cubes = [m for m in degree3_monomials() if max(m) == 3]
    assert not symplectic_weight_check(act3, cubes)


def test_mixed_classes_rejected():
    act = DiagonalAction(2, (0, 0, 0, 0, 1, 1), 0)
    with pytest.raises(MixedWeightClassesError):
        symplectic_weight_check(act, degree3_monomials())


@pytest.mark.parametrize("order,weights", [(0, (1, 0, 0, 0, 0, 0)), (-3, (1, 2, 0, 0, 0, 0)),
                                           (3, (1, 2, 0))])
def test_diagonal_action_refuses_bad_order_and_weight_count(order, weights):
    """Refused at construction: order 0 would divide by zero in weight_of,
    a negative order would store non-positive residues, and three weights
    would run centralizer_dimension out of range."""
    with pytest.raises(ValueError):
        DiagonalAction(order, weights)



def reference_monomials():
    """Reference: the exponent tuple of each cubic monomial, in the order of
    its index triple."""
    import itertools
    return [tuple(combo.count(i) for i in range(6))
            for combo in itertools.combinations_with_replacement(range(6), 3)]


def reference_family_dimension(actions):
    """Reference: every cubic monomial weighed by each action's weight_of,
    less the centralizer dimension."""
    kept = [m for m in reference_monomials()
            if all(a.weight_of(m) == a.w0 % a.order for a in actions)]
    chars = [tuple(a.weights[i] % a.order for a in actions) for i in range(6)]
    return len(kept) - sum(chars.count(c) ** 2 for c in set(chars))


def test_family_dimension_matches_reference():
    """family_dimension and invariant_monomials agree with the reference on
    3,000 seeded actions, one to three generators each, a lone action passed
    as itself or in a list; degree3_monomials keeps its order."""
    import random
    assert degree3_monomials() == reference_monomials()
    rng = random.Random(53)
    for _ in range(3000):
        acts = [DiagonalAction(n, [rng.randrange(-n, 2 * n) for _ in range(6)],
                               rng.randrange(-n, 2 * n))
                for n in [rng.randint(1, 12) for _ in range(rng.randint(1, 3))]]
        expect = reference_family_dimension(acts)
        assert family_dimension(acts) == family_dimension(iter(acts)) == expect, acts
        if len(acts) == 1:
            assert family_dimension(acts[0]) == expect
        assert invariant_monomials(acts) == [
            m for m in reference_monomials()
            if all(a.weight_of(m) == a.w0 % a.order for a in acts)]
