import itertools
import random

import pytest

from latticelab import build_lattice, direct_sum, named_lattice, rescale
from latticelab.errors import (
    DegenerateError,
    NonSymmetricError,
    UnknownLatticeError,
    ZeroScaleError,
)
from latticelab.lattice import lattice_from_json_dict


def test_build_lattice_basics():
    a2 = build_lattice([[2, 1], [1, 2]])
    assert a2.rank == 2
    assert a2.signature == (2, 0)
    assert a2.det == 3
    assert a2.even

    u = build_lattice([[0, 1], [1, 0]])
    assert u.signature == (1, 1)
    assert u.det == -1
    assert u.even


def test_build_lattice_rejects_bad_input():
    with pytest.raises(NonSymmetricError):
        build_lattice([[2, 1], [0, 2]])
    with pytest.raises(DegenerateError):
        build_lattice([[1, 1], [1, 1]])


def test_root_lattice_determinants():
    for name, det in [("A1", 2), ("A2", 3), ("A6", 7), ("D4", 4), ("D7", 4),
                      ("E6", 3), ("E7", 2), ("E8", 1)]:
        latt = named_lattice(name)
        assert latt.det == det, name
        assert latt.even
        assert latt.signature == (latt.rank, 0)


def test_big_named_lattices():
    borcherds = named_lattice("Borcherds")
    assert borcherds.signature == (26, 2)
    assert abs(borcherds.det) == 1
    assert borcherds.even

    l0 = named_lattice("Lambda0")
    assert l0.signature == (20, 2)
    assert abs(l0.det) == 3

    assert named_lattice("II(26,2)").signature == (26, 2)
    assert named_lattice("I(2,1)").signature == (2, 1)
    assert named_lattice("Lambda2").det == 2
    assert named_lattice("Lambda6").det == 6

    with pytest.raises(UnknownLatticeError):
        named_lattice("II(25,2)")
    with pytest.raises(UnknownLatticeError):
        named_lattice("F4")


@pytest.mark.parametrize("name", ["A65", "II(72,0)", "I(40,40)", "D" + "9" * 5000])
def test_registry_names_have_bounded_rank(name):
    """A name above the rank cap (64) is refused before any matrix is built;
    II(26,2), rank 28, is the largest the tables use."""
    with pytest.raises(UnknownLatticeError):
        named_lattice(name)


def test_direct_sum_and_rescale():
    e6 = named_lattice("E6")
    a2 = named_lattice("A2")
    s = direct_sum(e6, a2)
    assert s.rank == 8
    assert s.det == e6.det * a2.det == 9
    assert s.signature == (8, 0)

    u = named_lattice("U")
    uu = direct_sum(u, u)
    assert uu.signature == (2, 2)

    a1a1 = direct_sum(named_lattice("A1"), named_lattice("A1"))
    assert a1a1.gram == ((2, 0), (0, 2))

    a2_3 = rescale(build_lattice([[2, 1], [1, 2]]), 3)
    assert a2_3.gram == ((6, 3), (3, 6))
    assert a2_3.det == 27
    assert rescale(named_lattice("A2"), 3).det == 27
    assert rescale(a2, 1) == a2
    scaled = named_lattice("A1", scale=3)
    assert scaled.gram == ((6,),)
    with pytest.raises(ZeroScaleError):
        rescale(a2, 0)


def test_json_round_trip():
    a2 = named_lattice("A2")
    assert lattice_from_json_dict(a2.to_json_dict()) == a2
    assert lattice_from_json_dict({"name": "E6", "scale": 1}) == named_lattice("E6")
    scaled = lattice_from_json_dict({"name": "A2", "scale": -3})
    assert scaled == rescale(a2, -3)
    assert scaled.det == 27 and scaled.signature == (0, 2)


def _lattice_data(latt):
    return latt.gram, latt.signature, latt.det, latt.even


def _block_matrix(*lattices):
    total, rows = sum(latt.rank for latt in lattices), []
    for latt in lattices:
        off = len(rows)
        rows += [[0] * off + list(row) + [0] * (total - off - latt.rank) for row in latt.gram]
    return rows


def test_direct_sum_equals_the_block_matrix():
    """direct_sum reads signature, det and parity off its summands, with no
    elimination; they equal build_lattice of the block matrix on every pair
    of registry lattices (definite, indefinite, odd, unimodular) and of
    seeded Gram matrices, and on seeded triples of both.  No summands is a
    degenerate sum."""
    lattices = [named_lattice(name) for name in
                ("A1", "A2", "D4", "E6", "E7", "E8", "U", "I(1,1)", "I(2,0)", "II(9,1)")]
    rng = random.Random(2901)
    while len(lattices) < 22:
        n = rng.randint(1, 4)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        try:
            lattices.append(build_lattice(gram))
        except DegenerateError:
            continue
    cases = [(a,) for a in lattices] + list(itertools.product(lattices, repeat=2))
    cases += [tuple(rng.sample(lattices, 3)) for _ in range(40)]
    assert any(not latt.even for latt in lattices) and any(latt.det < 0 for latt in lattices)
    for case in cases:
        assert _lattice_data(direct_sum(*case)) == _lattice_data(build_lattice(_block_matrix(*case)))
    with pytest.raises(DegenerateError):
        direct_sum()
