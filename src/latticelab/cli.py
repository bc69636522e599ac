"""Command line front end.

Every library operation is exposed as a subcommand; `--json` switches
any of them to machine-readable output.  Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .casebook import (
    analyze_record,
    condition_check,
    full_report,
    load_table,
    polarization_root,
    root_for_degree,
    uniqueness_for_record,
)
from .errors import LatticeLabError
from .fqf import (
    complement_quotient,
    discriminant_form,
    isotropic_subgroups,
)
from .lattice import GramLattice, build_lattice, lattice_from_json_dict, named_lattice
from .nikulin import (
    LatticeInvariant,
    even_lattice_exists,
    primitive_embedding_into_even_unimodular_exists,
    saturations_keeping_primitive,
)
from .normalforms import (
    DiagonalAction,
    family_dimension,
    invariant_monomials,
    symplectic_weight_check,
)
from .rank2 import (
    rank2_automorphism_orders,
    rank2_enumerate,
    rank2_form_from_gram,
    rank2_reduce,
)
from .shortvec import short_vectors
from .symbol import form_from_symbol_text, is_isomorphic, to_symbol


def _json_value(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise argparse.ArgumentTypeError(f"not valid JSON: {source!r}") from None


def _integer_rows(mat, source: str) -> list:
    if not (isinstance(mat, list) and all(
            isinstance(row, list) and all(isinstance(x, int) for x in row)
            for row in mat)):
        raise argparse.ArgumentTypeError(f"not a list of integer rows: {source!r}")
    return mat


def _json_matrix(text: str) -> list:
    """argparse type: a JSON list of integer rows."""
    return _integer_rows(_json_value(text, text), text)


def _lattice_file(path: str) -> dict:
    """argparse type: a JSON file holding a `gram` matrix or a lattice
    `name` with an optional integer `scale`."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc.strerror}") from None
    data = _json_value(text, path)
    if not isinstance(data, dict) or not ("gram" in data or "name" in data):
        raise argparse.ArgumentTypeError(
            f"{path!r} holds no JSON object with a gram or name entry")
    if "name" in data:
        if not (isinstance(data["name"], str)
                and isinstance(data.get("scale", 1), int)):
            raise argparse.ArgumentTypeError(
                f"{path!r}: name must be a string and scale an integer")
    else:
        _integer_rows(data["gram"], path)
    return data


def _int_tuple(count: int):
    """argparse type: exactly `count` comma-separated integers."""
    def parse(text: str) -> tuple[int, ...]:
        try:
            vals = tuple(int(x) for x in text.split(","))
        except ValueError:
            vals = ()
        if len(vals) != count:
            raise argparse.ArgumentTypeError(
                f"expected {count} comma-separated integers, got {text!r}")
        return vals
    return parse


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _parse_gram(args) -> GramLattice:
    if args.file is not None:
        return lattice_from_json_dict(args.file)
    if args.name is not None:
        return named_lattice(args.name, 1 if args.scale is None else args.scale)
    return build_lattice(args.gram)


def _add_lattice_args(p):
    """Exactly one of --gram, --name, --file, and --scale for --name; returns the group."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gram", type=_json_matrix,
                       help="row-major Gram matrix, e.g. [[2,1],[1,2]]")
    group.add_argument("--name", help="named lattice, e.g. E6, U, II(26,2), Lambda0")
    group.add_argument("--file", type=_lattice_file,
                       help="JSON file with a gram or name entry")
    p.add_argument("--scale", type=int, help="rescale a named lattice (needs --name)")
    return group


def _emit(args, data, human: str):
    if args.json:
        json.dump(data, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(human)


def _cmd_lattice_info(args):
    latt = _parse_gram(args)
    data = {"rank": latt.rank, "signature": list(latt.signature),
            "det": latt.det, "even": latt.even}
    if latt.even:
        data["discriminant_form"] = str(to_symbol(discriminant_form(latt)))
    lines = [f"rank       {latt.rank}",
             f"signature  {latt.signature}",
             f"det        {latt.det}",
             f"parity     {'even' if latt.even else 'odd'}"]
    if latt.even:
        lines.append(f"disc form  {data['discriminant_form']}")
    _emit(args, data, "\n".join(lines))


def _cmd_lattice_shortvec(args):
    latt = _parse_gram(args)
    vecs = short_vectors(latt, args.norm)
    _emit(args, {"norm": args.norm, "count": len(vecs),
                 "vectors": [list(v) for v in vecs]},
          "\n".join(" ".join(map(str, v)) for v in vecs) or "(none)")


def _form_of(args):
    if args.form is not None:
        return form_from_symbol_text(args.form)
    latt = _parse_gram(args)
    return discriminant_form(latt)


def _cmd_rank2_enum(args):
    forms = rank2_enumerate(args.det, negative=args.neg)
    _emit(args, {"det": args.det, "forms": [str(f) for f in forms]},
          "\n".join(str(f) for f in forms) or "(none)")


def _rank2_form(args):
    a, b, c = args.form
    return rank2_form_from_gram([[a, b], [b, c]])


def _cmd_rank2_reduce(args):
    red = rank2_reduce(_rank2_form(args))
    _emit(args, {"reduced": [red.a, red.b, red.c], "negative": red.negative},
          str(red))


def _cmd_rank2_autorders(args):
    orders = sorted(rank2_automorphism_orders(_rank2_form(args)))
    _emit(args, {"orders": orders}, " ".join(map(str, orders)))


def _cmd_dform_of(args):
    latt = _parse_gram(args)
    q = discriminant_form(latt)
    sym = to_symbol(q)
    _emit(args, {"symbol": str(sym), "order": q.order, "form": q.to_json_dict()},
          f"{sym}  (group order {q.order})")


def _cmd_dform_symbol(args):
    q = form_from_symbol_text(args.form)
    sym = to_symbol(q)
    _emit(args, {"symbol": str(sym), "order": q.order,
                 "signature_mod8": sym.signature()},
          f"canonical: {sym}   sig mod 8: {sym.signature()}")


def _cmd_dform_iso(args):
    q1 = form_from_symbol_text(args.first)
    q2 = form_from_symbol_text(args.second)
    same = is_isomorphic(q1, q2)
    _emit(args, {"isomorphic": same}, "isomorphic" if same else "not isomorphic")


def _cmd_glue_isotropic(args):
    q = _form_of(args)
    subs = isotropic_subgroups(q)
    data = []
    for s in subs:
        quot = complement_quotient(q, s)
        data.append({"order": s.order, "gens": [list(g) for g in s.gens],
                     "quotient": str(to_symbol(quot))})
    _emit(args, {"count": len(subs), "subgroups": data},
          "\n".join(f"order {d['order']:3d} gens {d['gens']} -> quotient {d['quotient']}"
                    for d in data))


def _cmd_nikulin_exists(args):
    n1, n2 = args.sig
    q = form_from_symbol_text(args.form)
    verdict = even_lattice_exists(LatticeInvariant(n1, n2, q))
    _emit(args, verdict.to_json_dict(),
          f"exists: {verdict.exists}" +
          ("" if verdict.exists else f"   (fails condition {verdict.failed_condition}: {verdict.detail})"))


def _cmd_nikulin_embed(args):
    n1, n2 = args.sig
    q = form_from_symbol_text(args.form)
    verdict, comp = primitive_embedding_into_even_unimodular_exists(
        LatticeInvariant(n1, n2, q), args.target)
    data = verdict.to_json_dict()
    data["complement"] = comp.to_json_dict() if comp else None
    human = f"exists: {verdict.exists}"
    if comp:
        human += f"   complement signature {comp.n_plus},{comp.n_minus} form {data['complement']['form']}"
    _emit(args, data, human)


def _cmd_saturate(args):
    q_s = form_from_symbol_text(args.first)
    q_r = form_from_symbol_text(args.second)
    wits = [w.to_json_dict() for w in saturations_keeping_primitive(q_s, q_r)]
    _emit(args, {"witnesses": wits},
          "\n".join(f"index {w['index']:3d} glue {w['glue']} "
                    f"-> quotient {w['quotient']}" for w in wits))


def _verdict_rows(report):
    return [v.to_json_dict() for v in report]


def _render_report(report):
    lines = []
    for v in report:
        mark = "pass" if v.passed else "FAIL"
        line = f"row {v.record.row:2d}  {v.record.group:14s} order {v.record.order:6d}  {mark}"
        if v.passed:
            for c in v.classes:
                line += f"  [T={c.form}"
                if c.embedding_count is not None:
                    line += f" embeddings={c.embedding_count}"
                if c.nonsymplectic is not None:
                    line += f" nbar={c.nonsymplectic} total={c.total_order}"
                line += "]"
        else:
            line += "  " + v.reason
        lines.append(line)
    return "\n".join(lines)


def _table_report(table, root_name, row):
    """full_report over the table, or analyze_record on the one row asked for."""
    if row is None:
        return full_report(table, root_name)
    return [analyze_record(_record(table, row), polarization_root(root_name))]


def _cmd_cubic_check(args):
    report = _table_report("hm15", "E6", args.row)
    _emit(args, {"table": "hm15", "root": "E6", "rows": _verdict_rows(report)},
          _render_report(report))


def _cmd_k3_check(args):
    root = root_for_degree(args.degree)
    report = _table_report("k3max11", root.name, args.row)
    _emit(args, {"table": "k3max11", "degree": args.degree, "root": root.name,
                 "rows": _verdict_rows(report)},
          _render_report(report))


def _record(table, row):
    recs = [r for r in load_table(table) if r.row == row]
    if not recs:
        raise LatticeLabError(f"no row {row} in table {table}")
    return recs[0]


def _cmd_uniqueness(args):
    rec = _record(args.table, args.row)
    unique, note = uniqueness_for_record(rec)
    _emit(args, {"row": args.row, "unique": unique, "note": note},
          f"row {args.row} ({rec.group}): {note}")


def _cmd_nonsymplectic(args):
    rec = _record("hm15", args.row)
    verdict = analyze_record(rec, polarization_root("E6"))
    data = [c.to_json_dict() for c in verdict.classes]
    human = "\n".join(
        f"T={c.form}  nbar={c.nonsymplectic}  total order={c.total_order}"
        for c in verdict.classes) or "row does not pass the criterion"
    _emit(args, {"row": args.row, "classes": data}, human)


def _cmd_family_dim(args):
    act = DiagonalAction(args.order, args.weights, args.w0)
    dim = family_dimension(act)
    _emit(args, {"dim": dim, "monomials": len(invariant_monomials([act]))},
          f"family dimension {dim}")


def _cmd_symplectic_check(args):
    act = DiagonalAction(args.order, args.weights, args.w0)
    mons = invariant_monomials([act])
    ok = symplectic_weight_check(act, mons)
    _emit(args, {"symplectic": ok}, "symplectic" if ok else "not symplectic")


def _leaf(subparsers, name, func, **kwargs):
    """A subcommand that runs func; every one of them takes --json."""
    p = subparsers.add_parser(name, **kwargs)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="latticelab",
                                  description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    lattice = sub.add_parser("lattice", help="Gram lattice utilities")
    lsub = lattice.add_subparsers(dest="subcommand", required=True)
    p = _leaf(lsub, "info", _cmd_lattice_info,
              help="rank, signature, determinant, parity")
    _add_lattice_args(p)
    p = _leaf(lsub, "shortvec", _cmd_lattice_shortvec,
              help="vectors of a given norm, up to sign")
    _add_lattice_args(p)
    p.add_argument("--norm", type=int, required=True)

    rank2 = sub.add_parser("rank2", help="definite rank-2 forms")
    rsub = rank2.add_subparsers(dest="subcommand", required=True)
    p = _leaf(rsub, "enum", _cmd_rank2_enum,
              help="all reduced even forms of a determinant")
    p.add_argument("--det", type=int, required=True)
    p.add_argument("--neg", action="store_true", help="negative definite")
    p = _leaf(rsub, "reduce", _cmd_rank2_reduce, help="Gauss-reduce a form a,b,c")
    p.add_argument("--form", type=_int_tuple(3), required=True,
                   help="a,b,c; a leading minus needs --form=-3,1,-2")
    p = _leaf(rsub, "autorders", _cmd_rank2_autorders,
              help="orders of the isometries of a,b,c")
    p.add_argument("--form", type=_int_tuple(3), required=True,
                   help="a,b,c; a leading minus needs --form=-3,1,-2")

    dform = sub.add_parser("dform", help="finite quadratic forms")
    dsub = dform.add_subparsers(dest="subcommand", required=True)
    p = _leaf(dsub, "of", _cmd_dform_of, help="discriminant form of an even lattice")
    _add_lattice_args(p)
    p = _leaf(dsub, "symbol", _cmd_dform_symbol, help="canonicalize a genus symbol")
    p.add_argument("--form", required=True, help="genus symbol text")
    p = _leaf(dsub, "iso", _cmd_dform_iso, help="isometry test for two symbols")
    p.add_argument("first")
    p.add_argument("second")

    glue = sub.add_parser("glue", help="isotropic subgroup machinery")
    gsub = glue.add_subparsers(dest="subcommand", required=True)
    p = _leaf(gsub, "isotropic", _cmd_glue_isotropic,
              help="isotropic subgroups with quotients")
    _add_lattice_args(p).add_argument("--form", help="genus symbol text")

    nik = sub.add_parser("nikulin", help="even lattice existence / embeddings")
    nsub = nik.add_subparsers(dest="subcommand", required=True)
    p = _leaf(nsub, "exists", _cmd_nikulin_exists,
              help="even lattice with given invariants")
    p.add_argument("--sig", type=_int_tuple(2), required=True, help="n_plus,n_minus")
    p.add_argument("--form", required=True, help="genus symbol text")
    p = _leaf(nsub, "embed", _cmd_nikulin_embed,
              help="primitive embedding into II(l1,l2)")
    p.add_argument("--sig", type=_int_tuple(2), required=True, help="n_plus,n_minus")
    p.add_argument("--form", required=True, help="genus symbol text")
    p.add_argument("--target", type=_int_tuple(2), default=(26, 2), help="l1,l2 (default 26,2)")

    p = _leaf(sub, "saturate", _cmd_saturate,
              help="overlattices keeping the first factor primitive")
    p.add_argument("first", help="genus symbol of q_S")
    p.add_argument("second", help="genus symbol of q_R")

    cubic = sub.add_parser("cubic", help="cubic fourfold classification")
    csub = cubic.add_subparsers(dest="subcommand", required=True)
    p = _leaf(csub, "check", _cmd_cubic_check,
              help="run the criterion over the rank-4 table")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--row", type=int)
    group.add_argument("--all", action="store_true",
                       help="every row (the default without --row)")

    k3 = sub.add_parser("k3", help="low degree K3 classification")
    ksub = k3.add_subparsers(dest="subcommand", required=True)
    p = _leaf(ksub, "check", _cmd_k3_check,
              help="run the criterion over the rank-5 table")
    p.add_argument("--degree", type=int, required=True, choices=(0, 2, 4, 6))
    p.add_argument("--row", type=int)

    p = _leaf(sub, "uniqueness", _cmd_uniqueness,
              help="sufficient uniqueness of S in II(26,2)")
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--table", default="hm15")

    p = _leaf(sub, "nonsymplectic", _cmd_nonsymplectic,
              help="non-symplectic order per class")
    p.add_argument("--row", type=int, required=True)

    p = _leaf(sub, "family-dim", _cmd_family_dim,
              help="moduli dimension of a diagonal family")
    p.add_argument("--order", type=_positive_int, required=True)
    p.add_argument("--weights", type=_int_tuple(6), required=True,
                   help="six residues a,b,c,d,e,f")
    p.add_argument("--w0", type=int, default=0)

    p = _leaf(sub, "symplectic-check", _cmd_symplectic_check,
              help="weight condition for a diagonal action")
    p.add_argument("--order", type=_positive_int, required=True)
    p.add_argument("--weights", type=_int_tuple(6), required=True,
                   help="six residues a,b,c,d,e,f")
    p.add_argument("--w0", type=int, default=0)

    return top


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "scale", None) is not None and args.name is None:
        parser.error("--scale rescales a named lattice and needs --name")
    try:
        args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except LatticeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: what is left to flush at exit goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output closed", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
