"""Command-line front end: one subcommand per library capability.

Output is a single JSON document on stdout (schema "padlab/1", sorted keys)
or flat key = value lines with --format text.  Exact quantities are printed
as num/den rational strings and inexact reals with 12 significant digits, so
identical inputs give byte-identical output; fixtures double as regression
goldens.

Every failure mode maps to its own exit code (EXIT_CODES); cross-check
commands (oracle, factor) exit with EXIT_DISAGREE when the two computations
they compare do not agree.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import errors
from .dynamics import (
    atom_representatives,
    bowen_ball,
    bowen_count_oracle,
    bowen_volume_ratio,
    decompose,
    entropy,
    min_partition_level,
    mod_character,
)
from .entropylab import (
    CylinderFunction,
    MarkovMeasure,
    entropy_gap,
    entropy_rate,
    pinsker_check,
    telescope_bound_check,
)
from .liegroup import GroupSpec, bch, exp, horospherical_factor, log
from .matrix import PadicMatrix
from .scalar import DEFAULT_PRECISION, PadicContext
from .spectral import (
    ConstantsBundle,
    MixingParams,
    cartan_valuations,
    kappa,
    oh_bound,
    theorem1_rhs,
    xi_pgl2,
)

SCHEMA = "padlab/1"

EXIT_DISAGREE = 12

# every documented error class gets exactly one exit code; 1 is reserved
# for parse and validation failures, EXIT_DISAGREE for failed cross-checks
EXIT_CODES: dict[type, int] = {
    errors.NotDiagonalizable: 2,
    errors.NoHyperbolicity: 3,
    errors.NegativeGap: 4,
    errors.DomainError: 5,
    errors.LevelTooSmall: 6,
    errors.PrecisionExhausted: 7,
    errors.SingularAtPrecision: 8,
    errors.NotSplitAtPrecision: 9,
    errors.BudgetExceeded: 10,
    errors.NoConvergence: 11,
    errors.SupportMismatch: 13,
    # a symbol count disagreeing with p^|nu| means the input document does
    # not fit the command's schema, so it shares the validation exit
    errors.SymbolCountMismatch: 1,
    errors.DivisionByZero: 15,
    errors.DivergentSeries: 16,
    errors.NegativeExponent: 17,
    errors.IrreducibilityError: 18,
}


class _ParseFailure(Exception):
    """Raised instead of argparse's SystemExit so main can exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseFailure(message)


def _fmt_real(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _load_json_arg(arg: str):
    """Parse an inline JSON literal, or read the file at the given path."""
    text = arg.strip()
    if text.startswith(("[", "{")):
        return json.loads(text)
    with open(arg, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_matrix(ctx: PadicContext, arg: str) -> PadicMatrix:
    data = _load_json_arg(arg)
    if not isinstance(data, list) or not data:
        raise ValueError("matrix literal must be a nonempty array of rows")
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise ValueError("matrix rows must be arrays")
        try:
            rows.append([Fraction(str(entry)) for entry in row])
        except ZeroDivisionError as err:
            raise errors.DivisionByZero(f"matrix entry with zero denominator: {err}")
    return PadicMatrix.from_rationals(ctx, rows)


def _matrix_doc(m: PadicMatrix) -> list[list[str]]:
    return [[_fmt_rational(x.as_rational()) for x in row] for row in m.rows]


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
        return
    for line in _flatten(doc):
        print(line)


def _flatten(doc, prefix: str = ""):
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _flatten(doc[key], f"{prefix}{key}.")
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _flatten(item, f"{prefix}{i}.")
    else:
        yield f"{prefix.rstrip('.')} = {doc}"


def _context(args) -> PadicContext:
    return PadicContext(args.p, args.precision)


def _group_spec(ctx: PadicContext, args) -> GroupSpec:
    if args.group == "sl":
        return GroupSpec.sl(ctx, args.dim)
    return GroupSpec.gl(ctx, args.dim)


def _decomposition(args):
    ctx = _context(args)
    spec = _group_spec(ctx, args)
    a = _parse_matrix(ctx, args.a if hasattr(args, "a") and args.a else args.element)
    return ctx, spec, a, decompose(a, spec)


def _base_doc(args, command: str) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "p": args.p,
        "precision": args.precision,
    }


# ---- subcommand handlers ------------------------------------------------


def _cmd_analyze(args) -> tuple[dict, int]:
    ctx, spec, a, dec = _decomposition(args)
    nu_plus = [v for v in dec.nu if v > 0]
    doc = _base_doc(args, "analyze")
    doc.update(
        {
            "group": args.group,
            "dim": args.dim,
            "eigenvalues": [_fmt_rational(ev.as_rational()) for ev in dec.eigenvalues],
            "valuations": list(dec.nu),
            "classes": list(dec.classes),
            "nu": nu_plus,
            "nu_total": dec.nu_total,
            "entropy": {
                "exact": f"{dec.nu_total}*log({args.p})",
                "nats": _fmt_real(entropy(dec)),
            },
            "mod_character": _fmt_rational(mod_character(dec)),
            "min_partition_level": min_partition_level(dec),
            "lattice_defect": dec.lattice_defect,
        }
    )
    return doc, 0


def _cmd_exp(args) -> tuple[dict, int]:
    ctx = _context(args)
    x = _parse_matrix(ctx, args.element)
    doc = _base_doc(args, "exp")
    doc["result"] = _matrix_doc(exp(x))
    return doc, 0


def _cmd_log(args) -> tuple[dict, int]:
    ctx = _context(args)
    g = _parse_matrix(ctx, args.element)
    doc = _base_doc(args, "log")
    doc["result"] = _matrix_doc(log(g))
    return doc, 0


def _cmd_bch(args) -> tuple[dict, int]:
    ctx = _context(args)
    x = _parse_matrix(ctx, args.x)
    y = _parse_matrix(ctx, args.y)
    doc = _base_doc(args, "bch")
    doc["mode"] = args.mode
    doc["result"] = _matrix_doc(bch(x, y, mode=args.mode))
    return doc, 0


def _cmd_factor(args) -> tuple[dict, int]:
    ctx, spec, a, dec = _decomposition(args)
    g = _parse_matrix(ctx, args.element)
    res = horospherical_factor(g, args.k, dec)
    product = res.unstable @ res.bounded
    passed = product.congruent_mod(g, ctx.precision)
    doc = _base_doc(args, "factor")
    doc.update(
        {
            "unstable": _matrix_doc(res.unstable),
            "bounded": _matrix_doc(res.bounded),
            "rounds": res.rounds,
            "remultiplication": "PASS" if passed else "FAIL",
        }
    )
    return doc, 0 if passed else EXIT_DISAGREE


def _cmd_bowen(args) -> tuple[dict, int]:
    ctx, spec, a, dec = _decomposition(args)
    ball = bowen_ball(dec, args.k, args.n)
    doc = _base_doc(args, "bowen")
    doc.update(
        {
            "k": args.k,
            "n": args.n,
            "levels": list(ball.levels),
            "volume_ratio": _fmt_rational(bowen_volume_ratio(dec, args.n)),
            "entropy_nats": _fmt_real(entropy(dec)),
        }
    )
    return doc, 0


def _cmd_oracle(args) -> tuple[dict, int]:
    ctx, spec, a, dec = _decomposition(args)
    counts = bowen_count_oracle(dec, args.k, args.n, args.level, mode=args.mode)
    closed = [bowen_volume_ratio(dec, m) for m in range(1, args.n + 1)]
    agree = list(counts.ratios) == closed
    doc = _base_doc(args, "oracle")
    doc.update(
        {
            "mode": counts.mode,
            "k": args.k,
            "n": args.n,
            "level": counts.level,
            "counts": [str(c) for c in counts.counts],
            "ratios": [_fmt_rational(r) for r in counts.ratios],
            "closed_form": [_fmt_rational(r) for r in closed],
            "verdict": "AGREE" if agree else "DISAGREE",
        }
    )
    return doc, 0 if agree else EXIT_DISAGREE


def _cmd_atoms(args) -> tuple[dict, int]:
    ctx, spec, a, dec = _decomposition(args)
    reps = atom_representatives(dec, args.k)
    doc = _base_doc(args, "atoms")
    doc.update(
        {
            "k": args.k,
            "count": len(reps),
            "mod_character": _fmt_rational(mod_character(dec)),
            "representatives": [_matrix_doc(r) for r in reps],
        }
    )
    return doc, 0


def _cmd_gap(args) -> tuple[dict, int]:
    measure = MarkovMeasure.from_document(_load_json_arg(args.markov))
    identity = entropy_gap(measure, args.nu, args.p)
    doc = _base_doc(args, "gap")
    doc.update(
        {
            "nu_total": args.nu,
            "symbols": measure.s,
            "entropy_rate": _fmt_real(entropy_rate(measure)),
            "entropy_side": _fmt_real(identity.entropy_side),
            "phi_side": _fmt_real(identity.phi_side),
            "stationary": [_fmt_real(w) for w in measure.stationary.weights],
        }
    )
    return doc, 0


def _cmd_pinsker(args) -> tuple[dict, int]:
    ref = [float(x) for x in _load_json_arg(args.ref)]
    obs = [float(x) for x in _load_json_arg(args.obs)]
    report = pinsker_check(ref, obs)
    doc = _base_doc(args, "pinsker")
    doc.update(
        {
            "l1": _fmt_real(report.l1),
            "bound": _fmt_real(report.bound),
            "holds": report.holds,
        }
    )
    return doc, 0


def _cmd_telescope(args) -> tuple[dict, int]:
    markov_doc = _load_json_arg(args.markov)
    measure = MarkovMeasure.from_document(markov_doc)
    if args.f is not None:
        f_doc = _load_json_arg(args.f)
        f_doc = f_doc.get("f", f_doc) if isinstance(f_doc, dict) else f_doc
    elif isinstance(markov_doc, dict) and "f" in markov_doc:
        f_doc = markov_doc["f"]
    else:
        raise ValueError("no cylinder function: pass --f or embed an 'f' field")
    f = CylinderFunction.from_document(f_doc, measure.s)
    report = telescope_bound_check(f, measure)
    doc = _base_doc(args, "telescope")
    doc.update(
        {
            "depth": f.depth,
            "gap": _fmt_real(report.gap),
            "deltas": [_fmt_real(d) for d in report.deltas],
            "per_step_bounds": [_fmt_real(b) for b in report.per_step_bounds],
            "mean_f": _fmt_real(report.mean_f),
            "mu_f": _fmt_real(report.mu_f),
            "total_defect": _fmt_real(report.total_defect),
            "delta_sum": _fmt_real(report.delta_sum),
            "per_step_hold": report.per_step_hold,
            "telescoping_holds": report.telescoping_holds,
        }
    )
    return doc, 0


def _cmd_xi(args) -> tuple[dict, int]:
    doc = _base_doc(args, "xi")
    doc["k"] = args.k
    doc["value"] = _fmt_real(xi_pgl2(args.p, args.k))
    return doc, 0


def _cmd_oh(args) -> tuple[dict, int]:
    if (args.cartan is None) == (args.element is None):
        raise ValueError("pass exactly one of --cartan or --element")
    if args.cartan is not None:
        cartan = [int(x) for x in _load_json_arg(args.cartan)]
    else:
        ctx = _context(args)
        cartan = cartan_valuations(_parse_matrix(ctx, args.element))
    doc = _base_doc(args, "oh")
    doc.update(
        {
            "cartan": cartan,
            "dim_kv": args.dimkv,
            "dim_kw": args.dimkw,
            "value": _fmt_real(oh_bound(args.p, len(cartan), cartan, args.dimkv, args.dimkw)),
        }
    )
    return doc, 0


def _bundle_from_args(args) -> ConstantsBundle:
    if args.entropy_nats is not None:
        h = args.entropy_nats
    else:
        h = args.nu_total * math.log(args.p)
    return ConstantsBundle(
        mixing=MixingParams(args.c, args.alpha, args.delta),
        p=args.p,
        d=args.d,
        entropy_nats=h,
        base_ball_measure=args.base,
        a_norm=args.a_norm,
        nu_total=args.nu_total,
        lf_shift_applied=args.lf_shift,
    )


def _cmd_kappa(args) -> tuple[dict, int]:
    bundle = _bundle_from_args(args)
    doc = _base_doc(args, "kappa")
    doc.update(
        {
            "kappa": _fmt_real(kappa(bundle)),
            "entropy_nats": _fmt_real(bundle.entropy_nats),
            "lf_shift_applied": bundle.lf_shift_applied,
        }
    )
    return doc, 0


def _cmd_bound(args) -> tuple[dict, int]:
    bundle = _bundle_from_args(args)
    if (args.gap is None) == (args.gap_file is None):
        raise ValueError("pass exactly one of --gap or --gap-file")
    if args.gap is not None:
        gap = args.gap
    else:
        gap_doc = _load_json_arg(args.gap_file)
        if not isinstance(gap_doc, dict) or "entropy_side" not in gap_doc:
            raise ValueError("gap file must be a gap report with 'entropy_side'")
        gap = float(gap_doc["entropy_side"])
    # the lf shift is folded in here, on the caller side of the constant
    l_f = args.lf + (bundle.nu_total if bundle.lf_shift_applied else 0)
    kappa_value = kappa(bundle)
    rhs = theorem1_rhs(
        kappa_value, args.p, bundle.mixing.alpha, args.d, l_f, args.f_norm, gap
    )
    doc = _base_doc(args, "bound")
    doc.update(
        {
            "kappa": _fmt_real(kappa_value),
            "l_f": l_f,
            "lf_shift_applied": bundle.lf_shift_applied,
            "gap": _fmt_real(gap),
            "f_norm": _fmt_real(args.f_norm),
            "rhs": _fmt_real(rhs),
        }
    )
    return doc, 0


# ---- parser wiring -------------------------------------------------------


def _add_matrix_group_flags(
    sp, with_a: bool = False, element_help: str = "matrix: JSON literal or file path"
):
    sp.add_argument("--element", required=True, help=element_help)
    if with_a:
        sp.add_argument("--a", required=True, help="hyperbolic element a")
    sp.add_argument("--group", choices=("sl", "gl"), default="sl")
    sp.add_argument("--dim", type=int, required=True)


def _add_bundle_flags(sp):
    sp.add_argument("--c", type=float, required=True, help="mixing constant c")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--d", type=int, required=True, help="group dimension")
    sp.add_argument("--base", type=float, required=True, help="m_G of the level-2 ball")
    sp.add_argument("--a-norm", dest="a_norm", type=float, required=True)
    sp.add_argument("--nu-total", dest="nu_total", type=int, default=0)
    sp.add_argument("--entropy-nats", dest="entropy_nats", type=float, default=None)
    sp.add_argument(
        "--lf-shift",
        dest="lf_shift",
        action="store_true",
        help="record that l_f inputs carry the l_f + |nu| adjustment",
    )


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--p", type=int, default=3, help="residue prime (default 3)")
    common.add_argument(
        "--precision", type=int, default=DEFAULT_PRECISION, help="working precision N"
    )
    common.add_argument("--format", choices=("json", "text"), default="json")

    parser = _Parser(prog="padlab", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    sp = sub.add_parser("analyze", parents=[common], help="adjoint eigenspace report")
    _add_matrix_group_flags(sp)
    sp.set_defaults(handler=_cmd_analyze)

    sp = sub.add_parser("exp", parents=[common], help="matrix exponential")
    sp.add_argument("--element", required=True)
    sp.set_defaults(handler=_cmd_exp)

    sp = sub.add_parser("log", parents=[common], help="matrix logarithm")
    sp.add_argument("--element", required=True)
    sp.set_defaults(handler=_cmd_log)

    sp = sub.add_parser("bch", parents=[common], help="Baker-Campbell-Hausdorff")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--mode", choices=("direct", "dynkin"), default="direct")
    sp.set_defaults(handler=_cmd_bch)

    sp = sub.add_parser("factor", parents=[common], help="horospherical factorization")
    _add_matrix_group_flags(sp, with_a=True)
    sp.add_argument("--k", type=int, default=2, help="ball level of g")
    sp.set_defaults(handler=_cmd_factor)

    sp = sub.add_parser("bowen", parents=[common], help="Bowen ball levels and volume")
    _add_matrix_group_flags(sp, element_help="hyperbolic element a")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(handler=_cmd_bowen)

    sp = sub.add_parser("oracle", parents=[common], help="Bowen ball lattice count")
    _add_matrix_group_flags(sp, element_help="hyperbolic element a")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--level", type=int, required=True, help="truncation level")
    sp.add_argument("--mode", choices=("FULL", "FACTORED"), default="FULL")
    sp.set_defaults(handler=_cmd_oracle)

    sp = sub.add_parser("atoms", parents=[common], help="partition atom representatives")
    _add_matrix_group_flags(sp, element_help="hyperbolic element a")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(handler=_cmd_atoms)

    sp = sub.add_parser("gap", parents=[common], help="entropy gap identity")
    sp.add_argument("--markov", required=True, help="markov document: literal or path")
    sp.add_argument("--nu", type=int, required=True, help="|nu| with s = p^|nu|")
    sp.set_defaults(handler=_cmd_gap)

    sp = sub.add_parser("pinsker", parents=[common], help="Pinsker inequality check")
    sp.add_argument("--ref", required=True, help="reference vector: literal or path")
    sp.add_argument("--obs", required=True, help="observed vector: literal or path")
    sp.set_defaults(handler=_cmd_pinsker)

    sp = sub.add_parser("telescope", parents=[common], help="telescoping bound report")
    sp.add_argument("--markov", required=True)
    sp.add_argument("--f", default=None, help="cylinder function document")
    sp.set_defaults(handler=_cmd_telescope)

    sp = sub.add_parser("xi", parents=[common], help="Harish-Chandra function value")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(handler=_cmd_xi)

    sp = sub.add_parser("oh", parents=[common], help="matrix-coefficient decay bound")
    sp.add_argument("--cartan", default=None, help="descending k-list, JSON literal")
    sp.add_argument("--element", default=None, help="matrix to take Cartan data from")
    sp.add_argument("--dimkv", type=int, default=1)
    sp.add_argument("--dimkw", type=int, default=1)
    sp.set_defaults(handler=_cmd_oh)

    sp = sub.add_parser("kappa", parents=[common], help="the headline constant")
    _add_bundle_flags(sp)
    sp.set_defaults(handler=_cmd_kappa)

    sp = sub.add_parser("bound", parents=[common], help="entropy-gap rigidity bound")
    _add_bundle_flags(sp)
    sp.add_argument("--lf", type=int, required=True, help="smoothness level of f")
    sp.add_argument("--f-norm", dest="f_norm", type=float, required=True)
    sp.add_argument("--gap", type=float, default=None)
    sp.add_argument("--gap-file", dest="gap_file", default=None)
    sp.set_defaults(handler=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            parser.print_usage(sys.stderr)
            return 1
        doc, code = args.handler(args)
    except _ParseFailure as err:
        print(f"padlab: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError, KeyError, TypeError) as err:
        print(f"padlab: invalid input: {err}", file=sys.stderr)
        return 1
    except errors.PadlabError as err:
        code = EXIT_CODES.get(type(err))
        if code is None:
            # subclasses map to their nearest documented ancestor
            for klass, value in EXIT_CODES.items():
                if isinstance(err, klass):
                    code = value
                    break
            else:
                code = 1
        print(f"padlab: {type(err).__name__}: {err}", file=sys.stderr)
        return code
    _emit(doc, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
