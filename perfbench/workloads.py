"""The three seeded workloads: task generation, the timed engine call, and
the untimed output check of every task.

A workload is an endless sequence of *blocks*.  Every block of a workload
has the same composition (task kinds, parameter strata and, where cost
depends strongly on a size, the sizes themselves); the seed picks the
remaining inputs and the order inside the block.  Runs therefore complete
whole blocks, so a run's latency quantiles sit in the middle of a stratum
rather than on the edge between two, and two seeds give the same mix.

Task functions look engine functions up through their module at call time
(``quadext.lift_word``, ``cli.main``) so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from qeskit import cli, dsl, quadext, spaces
from qeskit.operators import DiffOp
from qeskit.scalars import PS_ONE, RatFunc

@dataclass
class Task:
    key: str            # canonical description; golden digests are keyed by it
    kind: str           # subcommand or library call
    symbolic: bool      # the space parameter is the formal symbol
    run: Callable[[], object]          # the timed engine call
    check: Callable[[object], tuple]   # -> (problems, digest); untimed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{block}")


# ---------------------------------------------------------------------------
# qes_requests: in-process `qes --format json ...` on ladder spaces V1
# ---------------------------------------------------------------------------

# The README's V1 examples, verbatim.  One cheap and one heavy example ride
# in every block, rotating, so a run of a few blocks covers all of them.
# Each entry is (argv, expected exit codes).
README_CHEAP = (
    (["check", "--space", "V1(2,3,a)", "--op", "Jp(2,3,a)"], {0}),
    (["check", "--space", "V1(1,1,a)", "--op", "d"], {1}),
    (["comm", "--op1", "Jp(1,1,a)", "--op2", "Jm(1,1,a)"], {0}),
)
README_HEAVY = (
    (["closure", "--space", "V1(2)", "--gens", "jp(2),j0(2),jm()"], {0}),
    (["fit", "--space", "V1(1,1,a)", "--op", "comm(Jp(1,1,a),Jm(1,1,a))",
      "--in", "J0(1,1,a)", "--maxdeg", "3"], {0}),
    (["search", "--space", "V1(2,2,a)", "--max-order", "2", "--deg=-1:1"], {0}),
    (["catalog", "--space", "V1(1,1,a)"], {0}),
)

RATIONAL_A = ("1/2", "1/3", "2/3", "3/2", "5/2", "1/4", "3/4", "5/3")

# The seeded slots of every block: (kind, n, m, symbolic a).  Sizes are
# fixed per slot so that every block, and every seed, has the same cost
# profile; the seed picks rational values of a, generators, expressions,
# windows and the order of the block.  Per block: 15 seeded cheap requests
# plus one README check/comm, 6 seeded heavy ones plus one README example,
# and 4 invalid requests (exit 2).  The cheap slots are counted so that the
# median falls in the middle of the dense group of generator checks.
QES_CHEAP = (
    ("own", 1, 4, True), ("own", 3, 3, False), ("own", 5, 2, True),
    ("own", 2, 5, False), ("own", 4, 1, True), ("own", 2, 2, False),
    ("other", 2, 5, False),
    ("expr", 1, 2, True), ("expr", 2, 3, False), ("expr", 4, 4, True),
    ("expr", 5, 1, False), ("expr", 3, 5, True), ("expr", 1, 1, False),
    ("comm", 1, 3, True), ("comm", 4, 5, False),
)
QES_HEAVY = (
    ("fit", 3, 2, True), ("closure", 3, 0, False), ("closure", 4, 2, False),
    ("search", 3, 3, True), ("search", 2, 4, False), ("catalog", 2, 2, True),
)
QES_INVALID = (
    ("unknown_gen", 2, 3, True), ("unknown_space", 3, 1, False),
    ("unbalanced", 4, 2, True), ("bad_window", 1, 5, False),
)
QES_BLOCK = 2 + len(QES_CHEAP) + len(QES_HEAVY) + len(QES_INVALID)


def _expr(rng) -> str:
    """A short DSL operator: 1-3 terms c*x^i*d^j, or an Euler-operator
    product."""
    if rng.random() < 0.25:
        k = rng.randrange(0, 4)
        return f"D*(D-{k})" if k else "D*D"
    out = ""
    for t in range(rng.randrange(1, 4)):
        i, j = rng.randrange(0, 4), rng.randrange(0, 3)
        factors = [rng.choice(("2", "3", "1/2", "a"))] if rng.random() < 0.5 else []
        factors += [f"x^{i}"] if i > 1 else ["x"] * i
        factors += [f"d^{j}"] if j > 1 else ["d"] * j
        term = "*".join(factors) or "1"
        out += term if t == 0 else rng.choice((" + ", " - ")) + term
    return out


def _cli_task(argv: list[str], kind: str, symbolic: bool, expect: set[int],
              validator) -> Task:
    full = ["--format", "json"] + argv

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(full)
        return code, buf.getvalue()

    def check(out):
        code, text = out
        problems = []
        try:
            rep = json.loads(text)
        except ValueError:
            return [f"exit {code}: no JSON report"], digest(f"noreport {code}")
        errors = [e.message for e in validator.iter_errors(rep)]
        if errors:
            problems.append("schema: " + "; ".join(errors[:3]))
        if code != rep.get("exit_code"):
            problems.append(f"return {code} != report exit_code")
        if code not in expect:
            problems.append(f"exit {code}, expected {sorted(expect)}")
        if code == 2:
            if rep.get("error") is None:
                problems.append("exit 2 without error")
            canon = json.dumps({"exit_code": 2, "error": True})
        else:
            rep.pop("timing_ms", None)
            canon = json.dumps(rep, sort_keys=True)
        if kind == "search" and code == 0:
            problems.extend(_search_oracle(argv, rep))
        return problems, digest(canon)

    return Task(" ".join(argv), kind, symbolic, run, check)


def _search_oracle(argv: list[str], rep: dict) -> list[str]:
    """Every basis member of a search must pass check_invariance."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    lo, hi = (int(v) for v in argv[-1].split("=", 1)[1].split(":"))
    space = dsl.parse_space_or_quad(opts["--space"])
    ops = spaces.search_preserving(space, int(opts["--max-order"]), lo, hi)
    problems = []
    if [op.str() for op in ops] != rep["normal_forms"].get("basis"):
        problems.append("search basis differs from a fresh library search")
    for op in ops:
        if not spaces.check_invariance(op, space).verdict:
            problems.append(f"search member not invariant: {op.str()}")
    return problems


def _qes_cheap(rng, kind, n, m, a):
    space = f"V1({n},{m},{a})"
    if kind == "own":
        g = rng.choice(("Jp", "J0", "Jm"))
        return ["check", "--space", space, "--op", f"{g}({n},{m},{a})"], {0}
    if kind == "other":
        op = rng.choice((f"jp({n})", f"j0({n})", "jm()", f"K({n})",
                         f"Kprime({m},{a})", f"kp({n},{a})", f"k0({n},{a})"))
        return ["check", "--space", space, "--op", op], {0, 1}
    if kind == "expr":
        return ["check", "--space", space, "--op", _expr(rng)], {0, 1}
    g1, g2 = rng.sample(("Jp", "J0", "Jm"), 2)
    argv = ["comm", "--op1", f"{g1}({n},{m},{a})", "--op2", f"{g2}({n},{m},{a})"]
    if n % 2:
        argv += ["--space", space]
    return argv, {0, 1}


def _qes_heavy(rng, kind, n, m, a):
    if kind == "fit":
        return ["fit", "--space", f"V1({n},{m},{a})",
                "--op", f"comm(Jp({n},{m},{a}),Jm({n},{m},{a}))",
                "--in", f"J0({n},{m},{a})", "--maxdeg", "3"], {0, 1}
    if kind == "closure":
        if not m:
            return ["closure", "--space", f"V1({n})",
                    "--gens", f"jp({n}),j0({n}),jm()"], {0, 1}
        gens = ",".join(f"{g}({n},{m},{a})" for g in ("Jp", "J0", "Jm"))
        return ["closure", "--space", f"V1({n},{m},{a})", "--gens", gens], {0, 1}
    if kind == "search":
        # order 2 over a width-2 window, or order 3 over a width-1 window
        order, width = (2, 2) if n % 2 else (3, 1)
        lo = rng.randrange(-2, 3 - width)
        return ["search", "--space", f"V1({n},{m},{a})", "--max-order",
                str(order), f"--deg={lo}:{lo + width}"], {0}
    return ["catalog", "--space", f"V1({n},{m},{a})"], {0, 1}


def _qes_invalid(rng, kind, n, m, a):
    space = f"V1({n},{m},{a})"
    if kind == "unknown_gen":
        argv = ["check", "--space", space, "--op", f"Jz{rng.randrange(10)}({n})"]
    elif kind == "unknown_space":
        argv = ["check", "--space", f"W{rng.randrange(2, 10)}({n},{m},{a})",
                "--op", "d"]
    elif kind == "unbalanced":
        argv = ["check", "--space", space, "--op", f"Jp({n},{m},{a}"]
    else:
        argv = ["search", "--space", space, "--max-order", "1",
                f"--deg={rng.randrange(-2, 3)}"]
    return argv, {2}


def qes_block(seed: int, block: int, validator) -> list[Task]:
    rng = block_rng("qes_requests", seed, block)
    specs = []
    for argv, expect in (README_CHEAP[block % 3], README_HEAVY[block % 4]):
        specs.append((argv, ",a)" in " ".join(argv), expect))
    for make, slots in ((_qes_cheap, QES_CHEAP), (_qes_heavy, QES_HEAVY),
                        (_qes_invalid, QES_INVALID)):
        for kind, n, m, sym in slots:
            a = "a" if sym else rng.choice(RATIONAL_A)
            argv, expect = make(rng, kind, n, m, a)
            specs.append((argv, sym and ",a)" in " ".join(argv), expect))
    rng.shuffle(specs)
    return [_cli_task(argv, argv[0], sym, expect, validator)
            for argv, sym, expect in specs]


# ---------------------------------------------------------------------------
# quad_symbolic: lift_word / s_generators / closure_check, symbolic lam
# ---------------------------------------------------------------------------

PRESETS = {"SqrtP2": "sqrt_quadratic_preset", "RatioSqrt": "ratio_sqrt_preset"}

# The lifted words of a block, the preset alternating slot by slot.  The
# cost of a lift depends on the number of d's (each extra d costs about x4
# with a symbolic lam) and on every letter around them: the same d pattern
# costs up to 5x more or less with x in place of f.  So only the d-free
# words are seeded (each ? is x or f); the others are fixed, which keeps
# every block's cost profile the same.  The ten one-d words cost 13-19 ms
# each, a dense group that holds the block's median.  ddfd (0.3-0.6 s) is
# the longest word; d^4 would take about 4.6 s.
QUAD_WORDS = ("?", "??", "??", "???", "???", "????",
              "xxd", "fd", "ffd", "df", "fdf", "dx", "fdx", "xfd", "xdf", "xxxd",
              "dd", "dxd", "fddx",
              "ddfd")
QUAD_BLOCK = len(QUAD_WORDS) + 4


def _preset(name: str, n: int, lam):
    return getattr(quadext, PRESETS[name])(n, lam)


def _word(rng, template: str) -> str:
    return "".join(rng.choice("xf") if c == "?" else c for c in template)


def _small_pair(rng):
    return (tuple(rng.randrange(-2, 3) for _ in range(3)),
            tuple(rng.randrange(-2, 3) for _ in range(2)))


def _specialize(M, lam0):
    def op(D):
        return DiffOp([(j, c.specialize(lam0)) for j, c in D.terms])
    return quadext.MatOp(op(M.a11), op(M.a12), op(M.a21), op(M.a22))


def _lift_task(preset: str, word: str, vector, lam0: Fraction) -> Task:
    def run():
        return quadext.lift_word(_preset(preset, 1, None), word)

    def check(M):
        # The symbolic identity is checked on one seeded vector at one seeded
        # point lam0: applying both sides with a symbolic lam costs several
        # times the lift itself.
        s = _preset(preset, 1, lam0)
        v = tuple(RatFunc(tuple(Fraction(c) for c in part)) for part in vector)
        problems = []
        if quadext.act(_specialize(M, lam0), v) != \
                quadext.apply_word_direct(s, word, v):
            problems.append(f"lift_word({word}) at lam = {lam0} disagrees "
                            f"with apply_word_direct on {v}")
        return problems, digest(M.str("lam"))

    return Task(f"lift_word {preset}(1,lam) {word}", "lift_word", True, run,
                check)


def _sgen_task(preset: str, n: int) -> Task:
    def run():
        return quadext.s_generators(_preset(preset, n, None))

    def check(res):
        s = _preset(preset, n, None)
        problems = []
        if len(res.family) != 3:
            problems.append(f"family of {len(res.family)}, expected 3")
        for M in res.family:
            if not quadext.check_invariance_quad(M, s).verdict:
                problems.append(f"family member not invariant: {M.str()}")
        return problems, digest(json.dumps(res.to_json("lam"), sort_keys=True))

    return Task(f"s_generators {preset}({n},lam)", "s_generators", True, run,
                check)


def _closure_task(preset: str, n: int, lam: Fraction) -> Task:
    def run():
        s = _preset(preset, n, lam)
        return quadext.closure_check(quadext.s_generators(s).family, s)

    def check(rep):
        problems = [] if rep.jacobi_ok else ["Jacobi identity fails"]
        return problems, digest(json.dumps(rep.to_json("lam"), sort_keys=True))

    return Task(f"closure_check {preset}({n},{lam})", "closure_check", False,
                run, check)


def quad_block(seed: int, block: int, validator=None) -> list[Task]:
    rng = block_rng("quad_symbolic", seed, block)
    names = tuple(PRESETS)
    tasks = []
    for i, template in enumerate(QUAD_WORDS):
        tasks.append(_lift_task(names[i % 2], _word(rng, template),
                                _small_pair(rng),
                                Fraction(rng.randrange(1, 101), 101)))
    for name in names:
        tasks.append(_sgen_task(name, 1))
        tasks.append(_closure_task(name, 1, Fraction(rng.randrange(1, 7), 7)))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# lame_spectrum: pullback, module invariance and spectrum, Sturm certificate
# ---------------------------------------------------------------------------

# n of the rational-k2 tasks (n = 12 twice, so p90 falls inside a stratum)
# and of the symbolic-k2 minority.  Two tasks of n = 12 cost as much as the
# other eight; together with the 100-task minimum this sets the run length.
LAME_RATIONAL_N = (4, 4, 5, 6, 7, 9, 12, 12)
LAME_SYMBOLIC_N = (2, 4)
LAME_BLOCK = len(LAME_RATIONAL_N) + len(LAME_SYMBOLIC_N)


def _lame_task(n: int, k2) -> Task:
    def run():
        H, _ = quadext.lame_pullback(n, k2)
        cp = quadext.module_spectrum(H, quadext.lame_module_basis(n))
        real = quadext.spectrum_all_real_distinct(cp) if k2 is not None else None
        return cp, real

    def check(out):
        cp, real = out
        problems = []
        if len(cp) - 1 != n + 1 or cp[-1] != PS_ONE:
            problems.append(f"char poly not monic of degree {n + 1}")
        if k2 is not None and real is not True:
            problems.append("Sturm certificate false at rational k2")
        canon = json.dumps({"cp": [c.str("k2") for c in cp], "real": real})
        return problems, digest(canon)

    return Task(f"lame n={n} k2={'k2' if k2 is None else k2}", "lame",
                k2 is None, run, check)


def lame_block(seed: int, block: int, validator=None) -> list[Task]:
    rng = block_rng("lame_spectrum", seed, block)
    tasks = []
    for n in LAME_RATIONAL_N:
        tasks.append(_lame_task(n, Fraction(rng.randrange(1, 11), 11)))
    tasks.extend(_lame_task(n, None) for n in LAME_SYMBOLIC_N)
    rng.shuffle(tasks)
    return tasks


BLOCKS = {
    "qes_requests": (qes_block, QES_BLOCK),
    "quad_symbolic": (quad_block, QUAD_BLOCK),
    "lame_spectrum": (lame_block, LAME_BLOCK),
}
