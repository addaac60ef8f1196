"""Command-line front end.

Subcommands mirror the engine facilities:

    check    --space S --op E             invariance of one operator
    comm     --op1 E1 --op2 E2 [--space]  commutator normal form
    closure  --space S --gens E1,E2,...   commutator table / structure
    fit      --space S --op E --in E0     polynomial-in-diagonal fit
    search   --space S --max-order R --deg LO:HI   classification search
    lame     --n N [--k2 Q] [--spectrum]  half-odd-integer pullback
    catalog  --space S                    named generators with normal forms

Every run emits one report (text or JSON, --format / QES_FORMAT), with all
numbers as exact rational strings; the JSON layout is pinned by
report_schema.json.  Exit codes: 0 = verdict true / success, 1 = verdict
false (with witnesses), 2 = usage or expression errors and any other
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache

from . import probe
from .dsl import (
    DslEvalError,
    DslSyntaxError,
    eval_ladder,
    eval_quad,
    parse_space_or_quad,
    split_top_level,
)
from .operators import QuasiDiffOp, commutator
from .quadext import (
    ClosureError,
    FamilyNotFound,
    MatOp,
    QuadSpace,
    check_invariance_quad,
    closure_check,
    lame_module_basis,
    lame_pullback,
    module_invariance,
    module_spectrum,
    s_generators,
    spectrum_all_real_distinct,
)
from .scalars import ExactError, rat
from .spaces import check_invariance, make_jumps, make_k, make_kernels, \
    make_mixing, make_bosonic, make_sl2, search_preserving

SCHEMA_VERSION = "1"


def _lame_k2_of(space: QuadSpace):
    """Recover the modulus from r = k2 x^4 - (1+k2) x^2 + 1, or None when
    it is symbolic."""
    lead = space.r.num[4]
    return lead.as_fraction() if lead.is_constant() else None


def _report(command: str, argv: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "argv": argv,
        "status": True,
        "exit_code": 0,
        "verdicts": {},
        "witnesses": [],
        "normal_forms": {},
        "data": {},
        "error": None,
        "timing_ms": 0,
    }


def _render_text(rep: dict) -> str:
    lines = [f"command: {rep['command']}", f"status: {rep['status']}"]
    if rep.get("error"):
        lines.append(f"error: {rep['error']}")
    for key, val in rep["verdicts"].items():
        lines.append(f"{key}: {val}")
    for key, val in rep["normal_forms"].items():
        if isinstance(val, list):
            lines.append(f"{key}:")
            lines.extend(f"  {v}" for v in val)
        else:
            lines.append(f"{key}: {val}")
    if rep["witnesses"]:
        lines.append("witnesses:")
        lines.extend(f"  {json.dumps(w)}" for w in rep["witnesses"])
    for key, val in rep["data"].items():
        lines.append(f"{key}: {json.dumps(val)}")
    lines.append(f"timing_ms: {rep['timing_ms']}")
    return "\n".join(lines) + "\n"


def _emit(rep: dict, fmt: str, out_path):
    text = (
        json.dumps(rep, indent=2) + "\n" if fmt == "json" else _render_text(rep)
    )
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand bodies (each fills the report and returns the exit code)
# ---------------------------------------------------------------------------


def _cmd_check(args, rep) -> int:
    space = parse_space_or_quad(args.space)
    if isinstance(space, QuadSpace):
        op = eval_quad(args.op, space)
        if not isinstance(op, MatOp):
            op = MatOp.scalar(op)
        result = check_invariance_quad(op, space)
        rep["normal_forms"]["op"] = op.str(space.param_name)
        rep["witnesses"] = [w.to_json() for w in result.witnesses]
    else:
        op = eval_ladder(args.op)
        op = QuasiDiffOp.coerce(op)
        result = check_invariance(op, space)
        rep["normal_forms"]["op"] = op.str()
        rep["witnesses"] = [w.to_json() for w in result.witnesses]
    rep["verdicts"]["invariant"] = result.verdict
    rep["status"] = result.verdict
    return 0 if result.verdict else 1


def _cmd_comm(args, rep) -> int:
    space = parse_space_or_quad(args.space) if args.space else None
    if isinstance(space, QuadSpace):
        op1, op2 = eval_quad(args.op1, space), eval_quad(args.op2, space)
        C = commutator(op1, op2)
        name = space.param_name
        rep["normal_forms"] = {
            "op1": op1.str(name), "op2": op2.str(name), "commutator": C.str(name)
        }
        result = check_invariance_quad(C, space)
        rep["verdicts"]["commutator_invariant"] = result.verdict
        rep["witnesses"] = [w.to_json() for w in result.witnesses]
        rep["status"] = result.verdict
        return 0 if result.verdict else 1
    op1 = QuasiDiffOp.coerce(eval_ladder(args.op1))
    op2 = QuasiDiffOp.coerce(eval_ladder(args.op2))
    C = commutator(op1, op2)
    rep["normal_forms"] = {
        "op1": op1.str(), "op2": op2.str(), "commutator": C.str()
    }
    if space is not None:
        result = check_invariance(C, space)
        rep["verdicts"]["commutator_invariant"] = result.verdict
        rep["witnesses"] = [w.to_json() for w in result.witnesses]
        rep["status"] = result.verdict
        return 0 if result.verdict else 1
    return 0


def _cmd_closure(args, rep) -> int:
    space = parse_space_or_quad(args.space)
    exprs = split_top_level(args.gens)
    if isinstance(space, QuadSpace):
        gens = []
        for e in exprs:
            g = eval_quad(e, space)
            gens.append(g if isinstance(g, MatOp) else MatOp.scalar(g))
        try:
            result = closure_check(gens, space)
        except ClosureError as exc:
            rep["status"] = False
            rep["error"] = str(exc)
            rep["verdicts"]["closes"] = False
            return 1
        rep["data"]["closure"] = result.to_json(space.param_name)
        rep["verdicts"]["closes"] = True
        rep["verdicts"]["jacobi_ok"] = result.jacobi_ok
        if result.classification:
            rep["verdicts"]["classification"] = result.classification
        rep["status"] = result.jacobi_ok
        return 0 if rep["status"] else 1
    gens = [QuasiDiffOp.coerce(eval_ladder(e)) for e in exprs]
    table = probe.commutator_table(gens, space, names=exprs)
    rep["data"]["closure"] = table.to_json()
    rep["verdicts"]["closes"] = table.closes
    rep["status"] = table.closes
    return 0 if table.closes else 1


def _cmd_fit(args, rep) -> int:
    space = parse_space_or_quad(args.space)
    if isinstance(space, QuadSpace):
        raise DslEvalError("fit expects a ladder space (V1)")
    op = QuasiDiffOp.coerce(eval_ladder(args.op))
    ref = QuasiDiffOp.coerce(eval_ladder(getattr(args, "in")))
    result = probe.fit_poly_in_J0(op, ref, space, max_deg=args.maxdeg)
    rep["data"]["fit"] = result.to_json()
    rep["normal_forms"]["op"] = op.str()
    rep["verdicts"]["fit_ok"] = result.ok
    rep["status"] = result.ok
    return 0 if result.ok else 1


def _cmd_search(args, rep) -> int:
    space = parse_space_or_quad(args.space)
    if isinstance(space, QuadSpace):
        raise DslEvalError("search expects a ladder space (V1)")
    try:
        lo_s, hi_s = args.deg.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise DslEvalError(f"--deg expects LO:HI, got {args.deg!r}")
    ops = search_preserving(space, args.max_order, lo, hi)
    rep["normal_forms"]["basis"] = [op.str() for op in ops]
    rep["data"]["dimension"] = len(ops)
    rep["verdicts"]["all_invariant"] = True
    return 0


def _cmd_lame(args, rep) -> int:
    k2 = None if args.k2 in (None, "k2") else rat(args.k2)
    H, space = lame_pullback(args.n, k2)
    module = lame_module_basis(args.n)
    name = space.param_name
    literal = check_invariance_quad(H, space)
    matrix = module_invariance(H, module)
    rep["normal_forms"]["pullback"] = H.str(name)
    rep["data"]["space"] = str(space)
    rep["data"]["module_basis"] = list(module.labels)
    rep["verdicts"]["plain_truncation_invariant"] = literal.verdict
    rep["verdicts"]["module_invariant"] = matrix is not None
    rep["witnesses"] = [w.to_json() for w in literal.witnesses[:3]]
    status = matrix is not None
    if args.spectrum:
        cp = module_spectrum(H, module)
        rep["data"]["spectrum"] = {
            "char_poly_low_first": [c.str(name) for c in cp],
            "degree": len(cp) - 1,
        }
        if k2 is not None:
            real = spectrum_all_real_distinct(cp)
            rep["verdicts"]["all_roots_real_distinct"] = real
            status = status and real
    rep["status"] = status
    return 0 if status else 1


def _cmd_catalog(args, rep) -> int:
    space = parse_space_or_quad(args.space)
    if isinstance(space, QuadSpace) and space.preset == "lame":
        # the catalogue for this preset is the second-order pullback and
        # the module it actually preserves
        H, _ = lame_pullback(space.n, _lame_k2_of(space))
        module = lame_module_basis(space.n)
        rep["normal_forms"]["pullback"] = H.str(space.param_name)
        rep["data"]["module_basis"] = list(module.labels)
        rep["verdicts"]["module_invariant"] = (
            module_invariance(H, module) is not None
        )
        rep["status"] = rep["verdicts"]["module_invariant"]
        return 0 if rep["status"] else 1
    if isinstance(space, QuadSpace):
        try:
            result = s_generators(space)
        except (FamilyNotFound, ExactError) as exc:
            rep["status"] = False
            rep["error"] = str(exc)
            return 1
        rep["data"]["family"] = [m.str(space.param_name) for m in result.family]
        rep["data"]["reference_checks"] = [
            c.to_json() for c in result.reference_checks
        ]
        rep["data"]["discrepancies"] = list(result.discrepancies)
        return 0
    entries = []

    def add(name: str, expr: str, op) -> None:
        op = QuasiDiffOp.coerce(op)
        entries.append({"name": name, "expr": expr, "normal_form": op.str()})

    n = space.n
    a = space.a
    a_str = "a" if a is None else str(a)
    for key, op in make_sl2(n).items():
        add(key, f"{key}({n})" if key != "jm" else "jm()", op)
    for key, op in make_k(n, a).items():
        add(key, f"{key}({n}, {a_str})", op)
    if space.m is not None:
        m = space.m
        for key, op in make_bosonic(n, m, a).items():
            add(key, f"{key}({n}, {m}, {a_str})", op)
        kers = make_kernels(n, m, a)
        add("K", f"K({n})", kers["K"])
        add("Kprime", f"Kprime({m}, {a_str})", kers["Kprime"])
        for alpha in range(space.delta + 1):
            mix = make_mixing(n, m, a, alpha)
            add(f"Q_{alpha}", f"Q({n}, {m}, {a_str}, {alpha})", mix.Q)
            add(f"Qbar_{alpha}", f"Qbar({n}, {m}, {a_str}, {alpha})", mix.Qbar)
            rep["data"].setdefault("orientation", mix.orientation)
        if a is not None and a.denominator == 1 and a >= 1:
            k = int(a)
            if n <= k and m - k >= n:
                for key, op in make_jumps(n, m, k).items():
                    add(key, f"{key}({n}, {m}, {k})", op)
    rep["data"]["generators"] = entries
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on the first call.  It holds no
    environment-dependent default: main reads QES_FORMAT on every call."""
    # the common flags are accepted both before and after the subcommand;
    # the subparser copies use SUPPRESS so they never clobber values parsed
    # by the main parser
    def add_common(parser, suppress):
        parser.add_argument(
            "--format", choices=("json", "text"),
            default=argparse.SUPPRESS if suppress else None,
            help="output format (env QES_FORMAT sets the default)")
        parser.add_argument(
            "--out", metavar="FILE",
            default=argparse.SUPPRESS if suppress else None,
            help="write the report to FILE instead of stdout")

    sub_common = argparse.ArgumentParser(add_help=False)
    add_common(sub_common, suppress=True)
    ap = argparse.ArgumentParser(
        prog="qes",
        description="Exact engine for operators preserving polynomial and "
        "power-extended function spaces.",
    )
    add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[sub_common], **kw)

    p = add_parser("check", help="invariance of an operator on a space")
    p.add_argument("--space", required=True)
    p.add_argument("--op", required=True)
    p.set_defaults(func=_cmd_check)

    p = add_parser("comm", help="commutator normal form")
    p.add_argument("--op1", required=True)
    p.add_argument("--op2", required=True)
    p.add_argument("--space", default=None)
    p.set_defaults(func=_cmd_comm)

    p = add_parser("closure", help="commutator table over generators")
    p.add_argument("--space", required=True)
    p.add_argument("--gens", required=True,
                   help="comma-separated operator expressions")
    p.set_defaults(func=_cmd_closure)

    p = add_parser("fit", help="fit an operator as a polynomial in a "
                                   "diagonal one")
    p.add_argument("--space", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--in", required=True, dest="in")
    p.add_argument("--maxdeg", type=int, default=3)
    p.set_defaults(func=_cmd_fit)

    p = add_parser("search", help="classify preserving operators in a "
                                      "bounded ansatz")
    p.add_argument("--space", required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--deg", required=True, help="degree window LO:HI")
    p.set_defaults(func=_cmd_search)

    p = add_parser("lame", help="half-odd-integer pullback and spectrum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k2", default=None,
                   help="rational modulus squared, or omit for symbolic")
    p.add_argument("--spectrum", action="store_true")
    p.set_defaults(func=_cmd_lame)

    p = add_parser("catalog", help="named generators for a space")
    p.add_argument("--space", required=True)
    p.set_defaults(func=_cmd_catalog)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    rep = _report(args.command, argv)
    start = time.monotonic_ns()
    try:
        code = args.func(args, rep)
    except (DslSyntaxError, DslEvalError) as exc:
        rep["status"] = False
        rep["error"] = str(exc)
        code = 2
    except ExactError as exc:
        rep["status"] = False
        rep["error"] = str(exc)
        code = 1
    except ValueError as exc:
        rep["status"] = False
        rep["error"] = str(exc)
        code = 2
    except Exception as exc:
        rep["status"] = False
        rep["error"] = f"unexpected {type(exc).__name__}: {exc}"
        code = 2
    rep["timing_ms"] = (time.monotonic_ns() - start) // 1_000_000
    rep["exit_code"] = code
    _emit(rep, args.format or os.environ.get("QES_FORMAT", "text"), args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
