import json

import pytest

from latticelab.cli import run


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def capture_json(capsys, argv):
    code, out = capture(capsys, argv + ["--json"])
    return code, json.loads(out)


def test_lattice_info(capsys):
    code, data = capture_json(capsys, ["lattice", "info", "--name", "Lambda0"])
    assert code == 0
    assert data["signature"] == [20, 2]
    assert data["det"] == 3
    assert data["discriminant_form"] == "3^-1"


def test_lattice_info_inline_gram(capsys):
    code, data = capture_json(
        capsys, ["lattice", "info", "--gram", "[[2,1],[1,2]]"])
    assert code == 0 and data["det"] == 3


def test_lattice_info_degenerate_gram(capsys):
    code = run(["lattice", "info", "--gram", "[[1,1],[1,1]]"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: Gram matrix is degenerate\n"


def test_lattice_shortvec(capsys):
    code, data = capture_json(
        capsys, ["lattice", "shortvec", "--name", "A2", "--norm", "2"])
    assert code == 0 and data["count"] == 3


def test_rank2_enum_verbatim_output(capsys):
    code, out = capture(capsys, ["rank2", "enum", "--det", "27", "--neg"])
    assert code == 0
    assert out.splitlines() == ["-(2^1 14)", "-(6^3 6)"]


def test_lattice_info_from_file(capsys, tmp_path):
    gram = tmp_path / "gram.json"
    gram.write_text('{"gram": [[2, 1], [1, 2]]}', encoding="utf-8")
    named = tmp_path / "named.json"
    named.write_text('{"name": "E6", "scale": 2}', encoding="utf-8")
    code, data = capture_json(capsys, ["lattice", "info", "--file", str(gram)])
    assert code == 0 and data["det"] == 3
    code, data = capture_json(capsys, ["lattice", "info", "--file", str(named)])
    assert code == 0 and data["det"] == 3 * 2 ** 6


def test_lattice_file_with_name_and_gram_reads_the_name(capsys, tmp_path):
    """The CLI and lattice_from_json_dict are one reader: an object with
    both entries is the named lattice (the only entry --file validates)."""
    from latticelab import named_lattice
    from latticelab.lattice import lattice_from_json_dict
    entries = {"name": "E6", "scale": 2, "gram": [[2, 1], [1, 2]]}
    both = tmp_path / "both.json"
    both.write_text(json.dumps(entries), encoding="utf-8")
    named = tmp_path / "named.json"
    named.write_text('{"name": "E6", "scale": 2}', encoding="utf-8")
    code, data = capture_json(capsys, ["lattice", "info", "--file", str(both)])
    assert code == 0 and data["det"] == 3 * 2 ** 6
    assert (code, data) == capture_json(capsys, ["lattice", "info", "--file", str(named)])
    assert lattice_from_json_dict(entries) == named_lattice("E6", 2)


def test_rank2_reduce_and_orders(capsys):
    code, out = capture(capsys, ["rank2", "reduce", "--form", "14,-1,2"])
    assert code == 0 and out.strip() == "(2^1 14)"
    code, out = capture(capsys, ["rank2", "reduce", "--form=-3,1,-2"])
    assert code == 0 and out.strip() == "-(2^1 3)"
    code, data = capture_json(capsys, ["rank2", "autorders", "--form", "6,3,6"])
    assert code == 0 and 3 in data["orders"] and 6 in data["orders"]


def test_dform_commands(capsys):
    code, data = capture_json(capsys, ["dform", "of", "--name", "E7"])
    assert code == 0 and data["symbol"] == "2_7^+1"
    code, data = capture_json(
        capsys, ["dform", "symbol", "--form", "2_3^-1 4_7^+1 3^-1 5^+1"])
    assert code == 0 and data["order"] == 120
    code, data = capture_json(capsys, ["dform", "iso", "2_1^+1", "2_7^+1"])
    assert code == 0 and data["isomorphic"] is False
    code, data = capture_json(capsys, ["dform", "iso", "2_3^-1", "2_7^+1"])
    assert code == 0 and data["isomorphic"] is True


def test_glue_isotropic(capsys):
    code, data = capture_json(capsys, ["glue", "isotropic", "--form", "3^-2"])
    assert code == 0
    orders = sorted(d["order"] for d in data["subgroups"])
    assert orders == [1, 3, 3]


def test_nikulin_commands(capsys):
    code, data = capture_json(
        capsys, ["nikulin", "exists", "--sig", "0,2", "--form", "3^+1 9^+1"])
    assert code == 0 and data["exists"] is True
    code, data = capture_json(
        capsys, ["nikulin", "exists", "--sig", "0,2",
                 "--form", "2_II^-2 3^+2 7^-1"])
    assert code == 0 and data["exists"] is False and data["failed_condition"] == 4
    code, data = capture_json(
        capsys, ["nikulin", "embed", "--sig", "20,2", "--form", "3^-1",
                 "--target", "26,2"])
    assert code == 0 and data["exists"] is True
    assert data["complement"]["signature"] == [6, 0]


def test_saturate(capsys):
    code, data = capture_json(capsys, ["saturate", "3^+2 9^-1", "3^+1"])
    assert code == 0
    assert any(w["index"] == 3 for w in data["witnesses"])


def test_cubic_check_json(capsys):
    code, data = capture_json(capsys, ["cubic", "check", "--all"])
    assert code == 0
    passes = [r["row"] for r in data["rows"] if r["pass"]]
    assert passes == [1, 4, 5, 10, 11, 13]


def test_cubic_check_single_row(capsys):
    code, data = capture_json(capsys, ["cubic", "check", "--row", "2"])
    assert code == 0
    row = data["rows"][0]
    assert row["pass"] is False
    assert "condition 4" in row["reason"]


def test_cubic_check_row_matches_all(capsys):
    _, everything = capture_json(capsys, ["cubic", "check", "--all"])
    for want in everything["rows"]:
        code, data = capture_json(capsys, ["cubic", "check", "--row", str(want["row"])])
        assert code == 0
        assert data == {"table": "hm15", "root": "E6", "rows": [want]}


@pytest.mark.parametrize("argv, table", [
    (["cubic", "check", "--row", "99"], "hm15"),
    (["k3", "check", "--degree", "2", "--row", "99"], "k3max11"),
])
def test_check_missing_row(capsys, argv, table):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: no row 99 in table {table}\n"


def test_k3_check(capsys):
    code, data = capture_json(capsys, ["k3", "check", "--degree", "2"])
    assert code == 0
    assert [r["row"] for r in data["rows"] if r["pass"]] == [3, 7, 9, 11]
    code, data = capture_json(capsys, ["k3", "check", "--degree", "6"])
    assert [r["row"] for r in data["rows"] if r["pass"]] == [3, 8, 10]


def test_uniqueness_and_nonsymplectic(capsys):
    code, data = capture_json(capsys, ["uniqueness", "--row", "1"])
    assert code == 0 and data["unique"] is True
    code, data = capture_json(capsys, ["nonsymplectic", "--row", "1"])
    assert code == 0
    assert data["classes"][0]["nonsymplectic_order"] == 6
    assert data["classes"][0]["total_order"] == 174960


def test_family_dim_and_symplectic_check(capsys):
    code, data = capture_json(
        capsys, ["family-dim", "--order", "6", "--weights", "0,3,2,5,4,4"])
    assert code == 0 and data["dim"] == 4
    code, data = capture_json(
        capsys, ["symplectic-check", "--order", "9",
                 "--weights", "0,6,3,1,4,7", "--w0", "6"])
    assert code == 0 and data["symplectic"] is True


def test_lattice_info_refuses_a_name_above_the_rank_cap(capsys):
    code = run(["lattice", "info", "--name", "A65"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


def test_rank2_enum_refuses_a_determinant_above_the_cap(capsys):
    code = run(["rank2", "enum", "--det", str(10**12)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: determinant 1000000000000 exceeds cap 10000000\n"


@pytest.mark.parametrize("argv,message", [
    (["dform", "symbol", "--form", "3^+400"], "symbol rank 400 exceeds cap 64"),
    (["dform", "symbol", "--form", "1000000000000000000000000000007^+1"],
     "cofactor 10238844796821566353 has no prime factor up to cap 1000000"),
    (["dform", "of", "--gram", "[[2000000000000000000000000000014]]"],
     "cofactor 10238844796821566353 has no prime factor up to cap 1000000"),
])
def test_inputs_past_a_work_cap_exit_with_one_line(capsys, argv, message):
    """A symbol of rank above the cap is refused before anything is built,
    and a scale or determinant whose factoring would need a trial divisor
    above 10**6 is refused at that divisor."""
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_rank2_autorders_of_a_form_with_large_entries(capsys, monkeypatch):
    """A 30-digit unreduced form: its isometries are read off the reduced
    form, never searched for among short vectors."""
    import latticelab.shortvec

    def refuse(*args, **kwargs):
        raise AssertionError("short-vector search called")

    monkeypatch.setattr(latticelab.shortvec, "short_vectors", refuse)
    # every search, whichever name it was imported by, starts here
    monkeypatch.setattr(latticelab.shortvec, "symmetric_bareiss", refuse)
    code, out = capture(capsys, ["rank2", "autorders",
                                 "--form=444444444444444444444444444444,7,12"])
    assert (code, out) == (0, "1 2\n")


@pytest.mark.parametrize("text", ["3^+" + "1" * 5000, "1" * 5000 + "^+1"],
                         ids=["long-rank", "long-scale"])
def test_symbol_with_an_overlong_digit_run_exits_with_one_line(capsys, text):
    """A scale or rank longer than the grammar's digit bound is a syntax
    error, not a failed integer conversion."""
    code = run(["dform", "symbol", "--form", text])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: bad constituent")


def test_domain_error_exit_code(capsys):
    code = run(["dform", "symbol", "--form", "2_3^+1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["rank2", "reduce", "--form=2,0,-2"],
    ["rank2", "autorders", "--form=-2,1,4"],
    ["rank2", "reduce", "--form=0,0,0"],
])
def test_rank2_rejects_forms_that_are_not_definite(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["rank2", "enum"])  # missing --det
    assert exc.value.code == 2


def test_every_leaf_takes_json():
    """Every leaf subcommand of the parser accepts --json and names the
    handler it runs."""
    import argparse

    from latticelab.cli import build_parser

    def leaves(parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield parser
        for action in subs:
            for child in action.choices.values():
                yield from leaves(child)

    found = list(leaves(build_parser()))
    assert len(found) == 18
    for p in found:
        switch = p._option_string_actions.get("--json")
        assert switch is not None and (switch.dest, switch.const) == ("json", True), p.prog
        assert callable(p.get_default("func")), p.prog


def test_cubic_check_byte_identical(capsys):
    _, out1 = capture(capsys, ["cubic", "check", "--all"])
    _, out2 = capture(capsys, ["cubic", "check", "--all"])
    assert out1 == out2


def test_cubic_check_matches_golden_file(capsys):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "cubic_check_golden.txt"
    _, out = capture(capsys, ["cubic", "check", "--all"])
    assert out == golden.read_text(encoding="utf-8")


def test_glue_generators_pinned(capsys):
    """Full --json output, glue generator coordinates included.

    The expected values in tests/data/glue_pins.json were recorded before
    the subgroup closure in fqf.py was rewritten; Subgroup.gens is the
    greedy choice over (-element order, element) and must not move.
    """
    import pathlib
    path = pathlib.Path(__file__).parent / "data" / "glue_pins.json"
    for pin in json.loads(path.read_text(encoding="utf-8")):
        code, data = capture_json(capsys, pin["argv"])
        assert code == 0
        assert data == pin["output"], pin["argv"]


@pytest.mark.parametrize("degree", [0, 2, 4, 6])
def test_k3_check_matches_golden_file(capsys, degree):
    """`k3 check --degree d --json` byte for byte, as recorded in
    tests/data/k3_check_golden.json before finite quadratic forms moved
    to integers modulo the level."""
    import pathlib
    path = pathlib.Path(__file__).parent / "data" / "k3_check_golden.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    code, out = capture(capsys, ["k3", "check", "--degree", str(degree), "--json"])
    assert code == 0
    assert out == golden[str(degree)]


@pytest.mark.parametrize("argv", [
    ["lattice", "info", "--gram", "notjson"],
    ["lattice", "info", "--gram", "[1,2]"],
    ["rank2", "reduce", "--form", "1,2"],
    ["rank2", "autorders", "--form", "a,b,c"],
    ["family-dim", "--order", "0", "--weights", "1,1"],
    ["family-dim", "--order", "6", "--weights", "1,1"],
    ["symplectic-check", "--order", "0", "--weights", "0,6,3,1,4,7"],
    ["lattice", "info", "--file", "missing.json"],
    ["lattice", "info", "--file", "malformed.json"],
    ["lattice", "info", "--file", "no_entry.json"],
    ["nikulin", "exists", "--sig", "1", "--form", "3^+1"],
    ["nikulin", "exists", "--sig", "a,b", "--form", "3^+1"],
    ["nikulin", "embed", "--sig", "20,0", "--form", "3^+1", "--target", "26"],
    ["lattice", "shortvec", "--name", "A2", "--norm", "2", "--rank-cap", "9"],
    ["rank2", "enum", "--det", "27", "--neg", "--even"],
])
def test_malformed_input_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "malformed.json").write_text("{bad", encoding="utf-8")
    (tmp_path / "no_entry.json").write_text('{"scale": 2}', encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_dform_symbol_decomposes_its_form_once(capsys, monkeypatch, flags):
    """Both outputs, signature included, come from one genus symbol."""
    import latticelab.symbol
    real = latticelab.symbol.jordan_constituents
    calls = []
    monkeypatch.setattr(latticelab.symbol, "jordan_constituents",
                        lambda form: calls.append(form) or real(form))
    code, out = capture(capsys, ["dform", "symbol", "--form", "2_1^+1 4_7^+1 3^-2"] + flags)
    assert code == 0 and "2_1^+1 4_7^+1 3^-2" in out
    assert len(calls) == 1
