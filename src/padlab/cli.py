"""Command-line front end: one subcommand per library capability.

The common flags --p, --precision and --format follow the subcommand.
Output is a single JSON document on stdout (schema "padlab/1", sorted keys)
or flat key = value lines with --format text.  Exact quantities are printed
as num/den rational strings and inexact reals with 12 significant digits, so
identical inputs give byte-identical output; fixtures double as regression
goldens.

Every failure mode maps to its own exit code (EXIT_CODES); cross-check
commands (oracle, factor) exit with EXIT_DISAGREE when the two computations
they compare do not agree.

One table, COMMANDS, gives each subcommand's handler, summary and flags,
the flags as (name, add_argument options) pairs after the common ones.
A named call whose words are plain --flag value pairs that its row takes
is read off that row, with no parser built (_plain_args).  Any other named
call is parsed by its subcommand's parser alone, which keeps --help,
abbreviations, --flag=value, values starting with "-" and every refusal;
any other first word gets the full parser, whose usage and errors list
every subcommand.
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
    check_oracle_args,
    decompose,
    entropy,
    min_partition_level,
    mod_character,
)
from .errors import _finite_real, _json_int, _json_number
from .liegroup import GroupSpec, bch, exp, horospherical_factor, log
from .matrix import PadicMatrix
from .scalar import DEFAULT_PRECISION, PadicContext, _is_prime
from .spectral import (
    ConstantsBundle,
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


def _int_flag(name: str, ok):
    """argparse type of an integer flag that ok accepts; argparse names the
    type in its message: "invalid prime value: '4'".  A ValueError raised
    by ok itself, such as a prime past the decidable bound, keeps its own
    message."""
    def convert(text: str) -> int:
        n = int(text)
        try:
            accepted = ok(n)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        if not accepted:
            raise ValueError(text)
        return n

    convert.__name__ = name
    return convert


def _fmt_real(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _printable(p: int, e: int, what: str) -> None:
    """Refuse p^e, or 1/p^e, whose decimal form would pass int's string
    limit, from e alone: p^e has floor(e log10 p) + 1 digits, and log10 p
    exceeds 1/4."""
    limit = sys.get_int_max_str_digits()
    if limit and (e >= 4 * limit or e * math.log10(p) >= limit):
        raise errors.BudgetExceeded(f"{what}{p}^{e} would print more than {limit} digits")


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


def _decomposition(args):
    ctx = _context(args)
    a = _parse_matrix(ctx, getattr(args, "a", None) or args.element)
    return decompose(a, GroupSpec(ctx, args.group, args.dim))


# ---- subcommand handlers ------------------------------------------------
# each returns its own fields and the exit code; main adds the envelope


def _cmd_analyze(args) -> tuple[dict, int]:
    dec = _decomposition(args)
    return {
        "group": args.group,
        "dim": args.dim,
        "eigenvalues": [_fmt_rational(ev.as_rational()) for ev in dec.eigenvalues],
        "valuations": list(dec.nu),
        "classes": list(dec.classes),
        "nu": [v for v in dec.nu if v > 0],
        "nu_total": dec.nu_total,
        "entropy": {
            "exact": f"{dec.nu_total}*log({args.p})",
            "nats": _fmt_real(entropy(dec)),
        },
        "mod_character": _fmt_rational(mod_character(dec)),
        "min_partition_level": min_partition_level(dec),
        "lattice_defect": dec.lattice_defect,
    }, 0


def _cmd_exp(args) -> tuple[dict, int]:
    m = _parse_matrix(_context(args), args.element)
    return {"result": _matrix_doc(exp(m))}, 0


def _cmd_log(args) -> tuple[dict, int]:
    m = _parse_matrix(_context(args), args.element)
    return {"result": _matrix_doc(log(m))}, 0


def _cmd_bch(args) -> tuple[dict, int]:
    ctx = _context(args)
    z = bch(_parse_matrix(ctx, args.x), _parse_matrix(ctx, args.y), mode=args.mode)
    return {"mode": args.mode, "result": _matrix_doc(z)}, 0


def _cmd_factor(args) -> tuple[dict, int]:
    dec = _decomposition(args)
    g = _parse_matrix(dec.ctx, args.element)
    res = horospherical_factor(g, args.k, dec)
    passed = (res.unstable @ res.bounded).congruent_mod(g, dec.ctx.precision)
    return {
        "unstable": _matrix_doc(res.unstable),
        "bounded": _matrix_doc(res.bounded),
        "rounds": res.rounds,
        "remultiplication": "PASS" if passed else "FAIL",
    }, 0 if passed else EXIT_DISAGREE


def _cmd_bowen(args) -> tuple[dict, int]:
    dec = _decomposition(args)
    levels = list(bowen_ball(dec, args.k, args.n))
    _printable(args.p, (args.n - 1) * dec.nu_total, "volume ratio 1/")
    return {
        "k": args.k,
        "n": args.n,
        "levels": levels,
        "volume_ratio": _fmt_rational(bowen_volume_ratio(dec, args.n)),
        "entropy_nats": _fmt_real(entropy(dec)),
    }, 0


def _cmd_oracle(args) -> tuple[dict, int]:
    dec = _decomposition(args)
    # the first count is the largest, and each ratio's terms divide it
    check_oracle_args(dec, args.k, args.n, args.level, args.mode)
    _printable(args.p, dec.group.dim_g * (args.level - args.k), "count ")
    _printable(args.p, (args.n - 1) * dec.nu_total, "closed-form ratio 1/")
    counts = bowen_count_oracle(dec, args.k, args.n, args.level, mode=args.mode)
    closed = [bowen_volume_ratio(dec, m) for m in range(1, args.n + 1)]
    # the bracket of bowen_count_oracle's docstring, equality at defect 0
    least = Fraction(1, args.p**dec.lattice_defect)
    agree = all(c * least <= r <= c for r, c in zip(counts.ratios, closed))
    return {
        "mode": counts.mode,
        "k": args.k,
        "n": args.n,
        "level": counts.level,
        "counts": [str(c) for c in counts.counts],
        "ratios": [_fmt_rational(r) for r in counts.ratios],
        "closed_form": [_fmt_rational(r) for r in closed],
        "verdict": "AGREE" if agree else "DISAGREE",
    }, 0 if agree else EXIT_DISAGREE


def _cmd_atoms(args) -> tuple[dict, int]:
    dec = _decomposition(args)
    # p^|nu| representatives, held to int's string limit before any is built
    limit = sys.get_int_max_str_digits()
    if limit and args.p**dec.nu_total > limit:
        raise errors.BudgetExceeded(f"{args.p}^{dec.nu_total} atom representatives, more than {limit}")
    reps = atom_representatives(dec, args.k)
    return {
        "k": args.k,
        "count": len(reps),
        "mod_character": _fmt_rational(mod_character(dec)),
        "representatives": [_matrix_doc(r) for r in reps],
    }, 0


# the Markov lab loads numpy: its three handlers import it on first use
def _cmd_gap(args) -> tuple[dict, int]:
    from .entropylab import MarkovMeasure, entropy_gap, entropy_rate

    measure = MarkovMeasure.from_document(_load_json_arg(args.markov))
    identity = entropy_gap(measure, args.nu, args.p)
    return {
        "nu_total": args.nu,
        "symbols": measure.s,
        "entropy_rate": _fmt_real(entropy_rate(measure)),
        "entropy_side": _fmt_real(identity.entropy_side),
        "phi_side": _fmt_real(identity.phi_side),
        "stationary": [_fmt_real(w) for w in measure.stationary.weights],
    }, 0


def _cmd_pinsker(args) -> tuple[dict, int]:
    from .entropylab import pinsker_check

    ref = [_json_number(x, "ref") for x in _load_json_arg(args.ref)]
    obs = [_json_number(x, "obs") for x in _load_json_arg(args.obs)]
    report = pinsker_check(ref, obs)
    return {
        "l1": _fmt_real(report.l1),
        "bound": _fmt_real(report.bound),
        "holds": report.holds,
    }, 0


def _cmd_telescope(args) -> tuple[dict, int]:
    from .entropylab import CylinderFunction, MarkovMeasure, telescope_bound_check

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
    return {
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
    }, 0


def _cmd_xi(args) -> tuple[dict, int]:
    return {"k": args.k, "value": _fmt_real(xi_pgl2(args.p, args.k))}, 0


def _cmd_oh(args) -> tuple[dict, int]:
    if (args.cartan is None) == (args.element is None):
        raise ValueError("pass exactly one of --cartan or --element")
    if args.cartan is not None:
        cartan = [_json_int(x, "cartan") for x in _load_json_arg(args.cartan)]
    else:
        cartan = cartan_valuations(_parse_matrix(_context(args), args.element))
    return {
        "cartan": cartan,
        "dim_kv": args.dimkv,
        "dim_kw": args.dimkw,
        "value": _fmt_real(oh_bound(args.p, cartan, args.dimkv, args.dimkw)),
    }, 0


def _bundle_from_args(args) -> ConstantsBundle:
    h = args.nu_total * math.log(args.p) if args.entropy_nats is None else args.entropy_nats
    return ConstantsBundle(c=args.c, alpha=args.alpha, delta=args.delta, p=args.p, d=args.d,
                           entropy_nats=h, base_ball_measure=args.base, a_norm=args.a_norm,
                           nu_total=args.nu_total)


def _cmd_kappa(args) -> tuple[dict, int]:
    bundle = _bundle_from_args(args)
    return {
        "kappa": _fmt_real(kappa(bundle)),
        "entropy_nats": _fmt_real(bundle.entropy_nats),
        "lf_shift_applied": args.lf_shift,
    }, 0


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
        gap = _finite_real(gap_doc["entropy_side"], "entropy_side")
    # the lf shift is folded in here, on the caller side of the constant
    l_f = args.lf + (bundle.nu_total if args.lf_shift else 0)
    rhs = theorem1_rhs(bundle, l_f, args.f_norm, gap)
    return {
        "kappa": _fmt_real(kappa(bundle)),
        "l_f": l_f,
        "lf_shift_applied": args.lf_shift,
        "gap": _fmt_real(gap),
        "f_norm": _fmt_real(args.f_norm),
        "rhs": _fmt_real(rhs),
    }, 0


# ---- flag table ----------------------------------------------------------
# a flag is (name, add_argument options); groups shared by several rows are named once

_COMMON_FLAGS = (
    ("--p", dict(type=_int_flag("prime", _is_prime), default=3, help="residue prime (default 3)")),
    ("--precision", dict(type=_int_flag("positive integer", lambda n: n >= 1),
                         default=DEFAULT_PRECISION, help="working precision N")),
    ("--format", dict(choices=("json", "text"), default="json")),
)
_MATRIX = ("--element", dict(required=True, help="matrix: JSON literal or file path"))
_GROUP_FLAGS = (("--group", dict(choices=("sl", "gl"), default="sl")),
                ("--dim", dict(type=int, required=True)))
_FLOW_FLAGS = (("--element", dict(required=True, help="hyperbolic element a")), *_GROUP_FLAGS)
_ATOMS_FLAGS = (*_FLOW_FLAGS, ("--k", dict(type=int, required=True)))
_BOWEN_FLAGS = (*_ATOMS_FLAGS, ("--n", dict(type=int, required=True)))
_BUNDLE_FLAGS = (
    ("--c", dict(type=_finite_real, required=True, help="mixing constant c")),
    ("--alpha", dict(type=_finite_real, required=True)),
    ("--delta", dict(type=_finite_real, required=True)),
    ("--d", dict(type=int, required=True, help="group dimension")),
    ("--base", dict(type=_finite_real, required=True, help="m_G of the level-2 ball")),
    ("--a-norm", dict(type=_finite_real, required=True)),
    ("--nu-total", dict(type=int, default=0)),
    ("--entropy-nats", dict(type=_finite_real, default=None)),
    ("--lf-shift", dict(action="store_true",
                        help="replace l_f by l_f + |nu| (bound); reported as lf_shift_applied")),
)

# name -> (handler, help summary, the subcommand's own flags), in help order
COMMANDS = {
    "analyze": (_cmd_analyze, "adjoint eigenspace report", (_MATRIX, *_GROUP_FLAGS)),
    "exp": (_cmd_exp, "matrix exponential", (("--element", dict(required=True)),)),
    "log": (_cmd_log, "matrix logarithm", (("--element", dict(required=True)),)),
    "bch": (_cmd_bch, "Baker-Campbell-Hausdorff", (
        ("--x", dict(required=True)), ("--y", dict(required=True)),
        ("--mode", dict(choices=("direct", "dynkin"), default="direct")),
    )),
    "factor": (_cmd_factor, "horospherical factorization", (
        _MATRIX, ("--a", dict(required=True, help="hyperbolic element a")), *_GROUP_FLAGS,
        ("--k", dict(type=int, default=2, help="ball level of g")),
    )),
    "bowen": (_cmd_bowen, "Bowen ball levels and volume", _BOWEN_FLAGS),
    "oracle": (_cmd_oracle, "Bowen ball lattice count", (
        *_BOWEN_FLAGS, ("--level", dict(type=int, required=True, help="truncation level")),
        ("--mode", dict(choices=("FULL", "FACTORED"), default="FULL")),
    )),
    "atoms": (_cmd_atoms, "partition atom representatives", _ATOMS_FLAGS),
    "gap": (_cmd_gap, "entropy gap identity", (
        ("--markov", dict(required=True, help="markov document: literal or path")),
        ("--nu", dict(type=_int_flag("nonnegative integer", lambda n: n >= 0),
                      required=True, help="|nu| with s = p^|nu|")),
    )),
    "pinsker": (_cmd_pinsker, "Pinsker inequality check", (
        ("--ref", dict(required=True, help="reference vector: literal or path")),
        ("--obs", dict(required=True, help="observed vector: literal or path")),
    )),
    "telescope": (_cmd_telescope, "telescoping bound report", (
        ("--markov", dict(required=True)),
        ("--f", dict(default=None, help="cylinder function document")),
    )),
    "xi": (_cmd_xi, "Harish-Chandra function value", (("--k", dict(type=int, required=True)),)),
    "oh": (_cmd_oh, "matrix-coefficient decay bound", (
        ("--cartan", dict(default=None, help="descending k-list, JSON literal")),
        ("--element", dict(default=None, help="matrix to take Cartan data from")),
        ("--dimkv", dict(type=int, default=1)), ("--dimkw", dict(type=int, default=1)),
    )),
    "kappa": (_cmd_kappa, "the headline constant", _BUNDLE_FLAGS),
    "bound": (_cmd_bound, "entropy-gap rigidity bound", (
        *_BUNDLE_FLAGS, ("--lf", dict(type=int, required=True, help="smoothness level of f")),
        ("--f-norm", dict(type=_finite_real, required=True)),
        ("--gap", dict(type=_finite_real, default=None)), ("--gap-file", dict(default=None)),
    )),
}


def _subcommand(parser: _Parser, name: str) -> _Parser:
    """parser with the common flags and name's own, answering subcommand=name."""
    # the common flags belong to the subcommands alone: placed before the
    # subcommand they are not recognized, so the call exits 1
    for flag, options in (*_COMMON_FLAGS, *COMMANDS[name][2]):
        parser.add_argument(flag, **options)
    parser.set_defaults(subcommand=name)
    return parser


def _plain_args(name: str, words: list[str]) -> argparse.Namespace | None:
    """build_parser(name).parse_args(words), read off the same flag rows when
    each word is one of name's flags, spelled exactly and given once, each
    flag but --lf-shift takes a next word not starting with "-" that its type
    and choices accept, and no required flag is missing; None otherwise."""
    flags = dict((*_COMMON_FLAGS, *COMMANDS[name][2]))
    given = {}
    words = iter(words)
    for flag in words:
        options = flags.get(flag)
        if options is None or flag in given:
            return None
        if "action" in options:  # store_true, the table's one action
            given[flag] = True
            continue
        word = next(words, "-")  # a flag with no word left is declined too
        if word.startswith("-"):
            return None
        try:
            value = options.get("type", str)(word)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[flag] = value
    values = {}
    for flag, options in flags.items():
        if flag not in given and options.get("required"):
            return None
        default = options.get("default", False if "action" in options else None)
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return argparse.Namespace(**values, subcommand=name)


def build_parser(name: str | None = None) -> _Parser:
    """The parser of subcommand name, for the words after it, or the full padlab parser."""
    if name:
        return _subcommand(_Parser(prog=f"padlab {name}"), name)
    # --help prints the docstring up to its last paragraph, which is for readers of the code
    parser = _Parser(prog="padlab", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (_, summary, _) in COMMANDS.items():
        _subcommand(sub.add_parser(name, help=summary), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    named = bool(argv) and argv[0] in COMMANDS
    try:
        args = _plain_args(argv[0], argv[1:]) if named else None
        if args is None:
            parser = build_parser(argv[0] if named else None)
            args = parser.parse_args(argv[1:] if named else argv)
            if args.subcommand is None:
                parser.print_usage(sys.stderr)
                return 1
        fields, code = COMMANDS[args.subcommand][0](args)
    except _ParseFailure as err:
        # the top level takes no flag, so a leading common flag is misplaced
        flag = argv[0].split("=")[0] if argv else ""
        if flag in ("--p", "--precision", "--format"):
            err = (f"{flag} follows the subcommand, as --p, --precision and --format "
                   f"do: padlab SUBCOMMAND {flag} ...")
        print(f"padlab: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, TypeError) as err:
        print(f"padlab: invalid input: {err}", file=sys.stderr)
        return 1
    except errors.PadlabError as err:
        print(f"padlab: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_CODES.get(type(err), 1)
    envelope = {"schema": SCHEMA, "command": args.subcommand, "p": args.p,
                "precision": args.precision}
    _emit({**envelope, **fields}, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
