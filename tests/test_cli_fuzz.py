"""Seeded fuzz of the command line: every leaf command, drawn inputs.

Each drawn argv must end with exit code 0, 1 or 2, let no exception other
than SystemExit escape, and, on exit 1, write exactly one stderr line.
Input sizes are bounded to ones whose runs finish in milliseconds; the
rank-2 forms and the symbol digit runs are not, since both are bounded
by the program itself.
"""

import argparse
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latticelab.cli import build_parser, run  # noqa: E402

ints = st.integers(-12, 12)
huge = st.integers(-10**40, 10**40)
junk = st.sampled_from(["", "x", "1,2", "[[1]", "--", "-1", "0", "[]", "1e3"])


@st.composite
def gram_text(draw):
    """A JSON matrix of rank 1 to 3, usually symmetric, sometimes junk."""
    n = draw(st.integers(1, 3))
    rows = [[draw(ints) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = 2 * (rows[i][i] // 2)
            for j in range(i):
                rows[i][j] = rows[j][i]
    return draw(st.one_of(st.just(json.dumps(rows)), junk))


def lattice_args(names):
    return st.one_of(
        st.tuples(st.just("--gram"), gram_text()),
        st.tuples(st.just("--name"), st.sampled_from(names)),
        st.tuples(st.just("--name"), st.sampled_from(names),
                  st.just("--scale"), st.integers(-3, 5).map(str)),
    ).map(list)


SMALL_NAMES = ["A1", "A2", "A3", "D4", "E6", "E7", "U", "A0", "E9", "A65",
               "A999999999", "I(2,1)", "II(1,1)", "II(2,3)", "Q", ""]
NAMES = SMALL_NAMES + ["E8", "II(26,2)", "Lambda0", "Lambda2", "Borcherds"]


@st.composite
def token(draw, max_rank):
    """One genus-symbol constituent, mostly well formed, sometimes malformed,
    unrealizable or with a digit run past the grammar's bound."""
    kind = draw(st.integers(0, 9))
    if kind == 7:
        return draw(junk)
    if kind == 8:
        return draw(st.sampled_from(["3^+" + "1" * 5000, "7" * 5000 + "^+1"]))
    if kind == 9:
        return draw(st.sampled_from(["3^+" + "9" * 40, "1" * 40 + "^+1", "6^+1",
                                     "3_1^+1", "2^+1", "2_0^+1", "2_II^+1", "3^+0"]))
    scale = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    sign = draw(st.sampled_from("+-"))
    if scale % 2:
        return f"{scale}^{sign}{draw(st.integers(1, max_rank))}"
    if draw(st.booleans()):
        return f"{scale}_II^{sign}2"
    unit = draw(st.sampled_from([1, 3, 5, 7]))  # the rank-1 form <unit * scale>
    return f"{scale}_{unit}^{'+' if unit in (1, 7) else '-'}1"


def symbol(max_rank=2, max_tokens=2):
    return st.lists(token(max_rank), max_size=max_tokens).map(" ".join)


def sig():
    return st.tuples(st.integers(-2, 30), st.integers(-2, 30)).map(
        lambda t: f"{t[0]},{t[1]}")


def triple(values):
    return st.tuples(values, values, values).map(lambda t: "--form=" + ",".join(map(str, t)))


@st.composite
def definite_triple(draw):
    """--form=a,b,c of a definite form with entries up to 10**30, mostly far
    from reduced."""
    entry = st.one_of(st.integers(1, 10**30), st.integers(10**20, 10**30))
    a, c = draw(entry), draw(entry)
    r = math.isqrt(a * c - 1)
    b = draw(st.one_of(st.integers(-r, r), st.sampled_from([r, -r])))
    s = draw(st.sampled_from([1, -1]))
    return f"--form={s * a},{s * b},{s * c}"


def rank2_form():
    return st.one_of(triple(st.one_of(ints, huge)), definite_triple(), definite_triple())


def weights():
    six = st.lists(st.integers(-3, 12), min_size=6, max_size=6)
    return st.one_of(six, six, st.lists(st.integers(0, 5), max_size=7)).map(
        lambda w: ",".join(map(str, w)))


def cmd(*parts):
    """argv from fixed words and drawn pieces (a piece may be a list)."""
    def flat(values):
        out = []
        for v in values:
            out.extend(v if isinstance(v, list) else [v])
        return out
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts)).map(flat)


rows = st.integers(-1, 17).map(str)

LEAVES = {
    "lattice info": cmd("lattice", "info", lattice_args(NAMES)),
    "lattice shortvec": cmd("lattice", "shortvec", lattice_args(SMALL_NAMES),
                            "--norm", st.integers(-8, 8).map(str)),
    "rank2 enum": cmd("rank2", "enum", "--det",
                      st.one_of(st.integers(-3, 5000), huge).map(str)),
    "rank2 reduce": cmd("rank2", "reduce", rank2_form()),
    "rank2 autorders": cmd("rank2", "autorders", rank2_form()),
    "dform of": cmd("dform", "of", lattice_args(NAMES)),
    "dform symbol": cmd("dform", "symbol", "--form", symbol(max_rank=3, max_tokens=3)),
    "dform iso": cmd("dform", "iso", symbol(), symbol()),
    "glue isotropic": cmd("glue", "isotropic", "--form", symbol(max_rank=1)),
    "nikulin exists": cmd("nikulin", "exists", "--sig", sig(), "--form", symbol()),
    "nikulin embed": cmd("nikulin", "embed", "--sig", sig(), "--form", symbol(),
                         "--target", sig()),
    "saturate": cmd("saturate", symbol(max_rank=1), symbol(max_rank=1)),
    "cubic check": cmd("cubic", "check", "--row", rows),
    "k3 check": cmd("k3", "check", "--degree", st.sampled_from("02463"), "--row", rows),
    "uniqueness": cmd("uniqueness", "--row", rows, "--table",
                      st.sampled_from(["hm15", "k3max11", "none"])),
    "nonsymplectic": cmd("nonsymplectic", "--row", rows),
    "family-dim": cmd("family-dim", "--order", st.integers(-1, 40).map(str),
                      "--weights", weights(), "--w0", st.integers(-3, 12).map(str)),
    "symplectic-check": cmd("symplectic-check", "--order", st.integers(-1, 40).map(str),
                            "--weights", weights(), "--w0", st.integers(-3, 12).map(str)),
}


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_every_leaf_has_a_generator():
    def leaves(parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield parser.prog.split(" ", 1)[1]
        for action in subs:
            for child in action.choices.values():
                yield from leaves(child)

    assert sorted(leaves(build_parser())) == sorted(LEAVES)


@pytest.mark.parametrize("leaf", sorted(LEAVES))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exits_cleanly_on_drawn_input(leaf, data):
    argv = data.draw(LEAVES[leaf]) + data.draw(st.sampled_from([[], ["--json"]]))
    code, err = run_captured(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.count("\n") == 1 and err.startswith("error:"), (argv, err)
