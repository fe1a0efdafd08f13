"""Command-line front end.

Subcommands mirror the library: ``growth``, ``phi``, ``avg-length``,
``boundary``, ``check``, ``transport``, ``folner``, ``convert``, ``certify``,
``quotient`` and ``suite``.  ``convert`` and ``quotient`` print JSON only
and take no ``--format``.  Every rational parameter is parsed exactly from
``p/q`` or integer syntax.  ``phi`` and ``check`` grow their ball table
until it decides the growth inverse, so they take no radius.  Exit codes: 0
on success (and on every check that holds), 2 when a mathematical check is
falsified (the witness is printed), 1 on usage or resource errors.  Each
subcommand returns its result; :func:`main` alone parses, writes the result
in the chosen ``--format`` to ``--output``, and picks the exit code.

Subsets are given as ``--omega a..b`` (an integer interval, z:1 only) or as
``--omega-file`` with one canonical element key per line.  The memory budget
(maximum enumerated elements) comes from ``--memory-budget``, else the
``CAYLEYISO_MEMORY_BUDGET`` environment variable, else a built-in default.
It bounds every ball and scan graph, and the |W| |B(r)| pairs a
``transport`` ledger iterates.  Connected-subset scans run on every CPU of
the process's affinity mask (limit them with ``taskset``); their results do
not depend on the number of CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .balls import INFINITE, average_length, enumerate_ball, phi, table_for_volume
from .constants import (
    BallSubsetsScope,
    ConnectedScope,
    CscBound,
    FolnerBound,
    certify_at_scale,
    csc_to_folner,
    folner_to_csc,
    quotient_estimate,
)
from .errors import CayleyIsoError, NoFamilyForKind, PreconditionUnmet
from .folner import folner_exact, folner_family_upper
from .groups import ZPowerD, make_group
from .isoperimetry import (
    FORMS,
    FiniteSubset,
    boundary_ratio,
    check_inequality,
    inequality_volume,
)
from .transport import LEMMAS, build_ledger, verify_lemma

ENV_BUDGET = "CAYLEYISO_MEMORY_BUDGET"


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; exit 2 is reserved for falsified checks
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # every parser reports the arguments it does not know, with its own
    # usage: a subcommand those after its name (it finishes parsing before
    # the top level does), the top level those before it
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="cayleyiso", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, omega=False, formats=True):
        p.add_argument("--group", required=True, help="z:<d>, free:<rank>, dinf, heis, lamplighter")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        p.add_argument("--memory-budget", type=_positive_int, default=None,
                       help="max enumerated elements (default from environment)")
        if omega:
            p.add_argument("--omega", default=None, help="integer range a..b (z:1 only)")
            p.add_argument("--omega-file", default=None,
                           help="file with one canonical element key per line")

    p = sub.add_parser("growth", help="ball, sphere and average-length table")
    common(p)
    p.add_argument("--radius", type=int, required=True)

    p = sub.add_parser("phi", help="growth inverse: least r with |B(r)| > v")
    common(p)
    p.add_argument("--volume", type=_rational, required=True)

    p = sub.add_parser("avg-length", help="average word norm over B(r), exact")
    common(p)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("boundary", help="inner boundary and boundary ratio of a subset")
    common(p, omega=True)

    p = sub.add_parser("check", help="evaluate one isoperimetric inequality form")
    common(p, omega=True)
    p.add_argument("--form", choices=FORMS, required=True)
    p.add_argument("--alpha", type=_rational, default=None)
    p.add_argument("--eps", type=_rational, default=None)

    p = sub.add_parser("transport", help="build a transport ledger and verify counting lemmas")
    common(p, omega=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--lemma", choices=LEMMAS + ("all",), default="all")
    p.add_argument("--alpha", type=_rational, default=None)

    p = sub.add_parser("folner", help="exact Folner value by exhaustive connected search")
    common(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--cap", type=_positive_int, default=10,
                   help="search size cap; cost grows exponentially with it")
    p.add_argument("--family-only", action="store_true",
                   help="report only the closed-family upper bound")

    p = sub.add_parser("convert", help="convert bound parameters between the two shapes")
    p.add_argument("--direction", choices=("csc-to-folner", "folner-to-csc"), required=True)
    p.add_argument("--c", type=_rational, required=True)
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--rho", type=_rational, default=None)
    p.add_argument("--s-size", type=_positive_int, default=None)
    p.add_argument("--output", default="-")

    p = sub.add_parser("certify", help="check an outer bound over an exhaustive scope")
    common(p)
    p.add_argument("--c", type=_rational, required=True)
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--scope", required=True,
                   help="'b2' (all subsets of B(2)) or 'connected:<k>'")

    p = sub.add_parser("quotient", help="window statistics for the optimal-constant quotient")
    common(p, formats=False)
    p.add_argument("--horizon", type=_positive_int, required=True)
    p.add_argument("--cap", type=_positive_int, default=9,
                   help="search cap for the Folner records")

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--output", default="-")
    return parser


def _budget(args) -> int | None:
    """The element budget of the flag, else of the environment, else None
    for the library default.  Both values pass :func:`_positive_int`."""
    if args.memory_budget is not None:
        return args.memory_budget
    env = os.environ.get(ENV_BUDGET)
    if not env:
        return None
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise CayleyIsoError(f"{ENV_BUDGET}: {exc}") from None


_RANGE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _parse_omega(group, args) -> FiniteSubset:
    if args.omega is not None and args.omega_file is not None:
        raise CayleyIsoError("give either --omega or --omega-file, not both")
    if args.omega is not None:
        if not (isinstance(group, ZPowerD) and group.d == 1):
            raise CayleyIsoError("--omega ranges are only defined for z:1; use --omega-file")
        m = _RANGE.match(args.omega.strip())
        if not m:
            raise CayleyIsoError(f"range must look like a..b, got {args.omega!r}")
        a, b = int(m.group(1)), int(m.group(2))
        if a > b:
            raise CayleyIsoError(f"empty range {args.omega!r}")
        return FiniteSubset(group, [(i,) for i in range(a, b + 1)])
    if args.omega_file is not None:
        with open(args.omega_file, "r", encoding="utf-8") as fh:
            try:
                subset = FiniteSubset.from_keys(group, fh)
            except UnicodeDecodeError as exc:
                raise CayleyIsoError(
                    f"{args.omega_file} is not UTF-8 text (byte {exc.start}: {exc.reason})"
                ) from None
        if not subset.elements:
            raise CayleyIsoError(f"no elements in {args.omega_file}")
        return subset
    raise CayleyIsoError("a subset is required: --omega or --omega-file")


# Each _cmd_* returns (payload, csv, falsified): the JSON payload, the CSV
# text (None where the subcommand prints JSON only) and one line per
# falsified check, empty when everything holds.

def _cmd_growth(args) -> tuple:
    table = enumerate_ball(make_group(args.group), args.radius, max_elements=_budget(args))
    lines = ["r,b_r,s_r,length_sum_r,avg_len_num,avg_len_den"]
    lines += [",".join(str(v) for v in row) for row in table.csv_rows()]
    return table.to_json_dict(), "\n".join(lines), []


def _cmd_phi(args) -> tuple:
    group = make_group(args.group)
    table = table_for_volume(group, args.volume, max_elements=_budget(args))
    value = phi(table, args.volume)
    text = "infinite" if value is INFINITE else str(value)
    return {"group": group.descriptor, "volume": str(args.volume), "phi": text}, text, []


def _cmd_avg_length(args) -> tuple:
    group = make_group(args.group)
    table = enumerate_ball(group, args.r, max_elements=_budget(args))
    avg = average_length(table, args.r)
    payload = {"group": group.descriptor, "r": args.r,
               "avg_len": {"num": avg.numerator, "den": avg.denominator}}
    return payload, f"{avg.numerator}/{avg.denominator}", []


def _cmd_boundary(args) -> tuple:
    group = make_group(args.group)
    omega = _parse_omega(group, args)
    ratio = boundary_ratio(omega)
    keys = [group.format_element(x) for x in
            sorted(omega.boundary_set(), key=group.key)]
    payload = {
        "group": group.descriptor,
        "omega_size": len(omega),
        "boundary": keys,
        "ratio": {"num": ratio.numerator, "den": ratio.denominator},
    }
    return payload, "\n".join(keys + [f"ratio,{ratio.numerator}/{ratio.denominator}"]), []


def _cmd_check(args) -> tuple:
    group = make_group(args.group)
    omega = _parse_omega(group, args)
    volume = inequality_volume(args.form, len(omega), alpha=args.alpha, eps=args.eps)
    table = table_for_volume(group, volume, max_elements=_budget(args))
    report = check_inequality(omega, table, args.form, alpha=args.alpha, eps=args.eps)
    radius = "infinite" if report.radius_used is INFINITE else report.radius_used
    csv = ("form,lhs,rhs,holds,strict,radius_used\n"
           f"{report.form},{report.lhs.numerator}/{report.lhs.denominator},"
           f"{report.rhs.numerator}/{report.rhs.denominator},"
           f"{report.holds},{report.strict},{radius}")
    falsified = [] if report.holds else [f"falsified: {args.form} on the given subset"]
    return report.to_json_dict(), csv, falsified


def _cmd_transport(args) -> tuple:
    group = make_group(args.group)
    omega = _parse_omega(group, args)
    budget = _budget(args)
    if args.alpha is None:
        table = enumerate_ball(group, args.r, max_elements=budget)
    else:
        # the alpha lemmas evaluate the growth inverse at (1+alpha)|W|
        table = table_for_volume(group, (1 + args.alpha) * len(omega),
                                 max_elements=budget, start_radius=args.r)
    ledger = build_ledger(omega, table, args.r, max_elements=budget)
    if args.lemma == "all":
        lemmas = ["transport", "counting", "fiber", "spheres", "balls"]
        if args.alpha is not None:
            lemmas += ["ray-lower", "conclude"]
    else:
        lemmas = [args.lemma]
    rows = []
    falsified = []
    for name in lemmas:
        try:
            report = verify_lemma(name, table=table, ledger=ledger, alpha=args.alpha)
        except PreconditionUnmet as exc:
            # reported, never silently dropped; an unmet hypothesis is not a
            # falsification
            rows.append({"which": name, "holds": "precondition-unmet",
                         "witness": None, "detail": str(exc)})
            continue
        rows.append(report.to_json_dict())
        if not report.holds:
            falsified.append(f"falsified: {report.which} with witness {report.witness}")
    payload = ledger.to_json_dict()
    payload["lemma_results"] = rows
    lines = ["lemma,holds,detail"]
    lines += [f"{r['which']},{r['holds']},{r['detail']}" for r in rows]
    return payload, "\n".join(lines), falsified


def _check_printable(value, what: str) -> None:
    """Raise a typed error where the interpreter's limit on the digits of an
    int turned into text would stop ``str`` and ``json.dumps`` on ``value``."""
    try:
        str(value)
    except ValueError:
        raise CayleyIsoError(
            f"{what} has more than {sys.get_int_max_str_digits()} decimal digits, "
            "the interpreter's limit for printing an integer "
            "(PYTHONINTMAXSTRDIGITS sets it)") from None


def _cmd_folner(args) -> tuple:
    group = make_group(args.group)
    try:
        family = folner_family_upper(group, args.n)
    except NoFamilyForKind:
        if args.family_only:
            raise
        family = None
    # before the scan, which can run for a minute
    _check_printable(family, f"the family upper bound for n={args.n}")
    if args.family_only:
        payload = {"group": group.descriptor, "n": args.n, "family_upper": family}
        return payload, f"n,family_upper\n{args.n},{family}", []
    record = folner_exact(group, args.n, args.cap, max_elements=_budget(args))
    payload = record.to_json_dict()
    payload["group"] = group.descriptor
    csv = ("n,value_or_bound,kind,witness_size,family_upper\n"
           + ",".join(str(v) for v in record.csv_row()))
    return payload, csv, []


def _cmd_convert(args) -> tuple:
    if args.direction == "csc-to-folner":
        if args.rho is None:
            raise CayleyIsoError("csc-to-folner needs --rho > 0")
        result = csc_to_folner(CscBound(args.c, args.alpha), args.rho)
        payload = {"direction": args.direction,
                   "input": {"c": str(args.c), "alpha": str(args.alpha)},
                   "output": result.params_dict()}
    else:
        if args.rho is None or args.s_size is None:
            raise CayleyIsoError("folner-to-csc needs --rho and --s-size")
        result = folner_to_csc(FolnerBound(args.c, args.alpha, args.rho), args.s_size)
        payload = {"direction": args.direction,
                   "input": {"c": str(args.c), "alpha": str(args.alpha),
                             "rho": str(args.rho), "s_size": args.s_size},
                   "output": result.params_dict()}
    return payload, None, []


def _parse_scope(text: str):
    if text == "b2":
        return BallSubsetsScope(2)
    m = re.fullmatch(r"connected:(\d+)", text)
    if m:
        return ConnectedScope(int(m.group(1)))
    raise CayleyIsoError(f"scope must be 'b2' or 'connected:<k>', got {text!r}")


def _cmd_certify(args) -> tuple:
    group = make_group(args.group)
    scope = _parse_scope(args.scope)
    cert = certify_at_scale(group, CscBound(args.c, args.alpha), scope,
                            max_elements=_budget(args))
    csv = f"holds,scope,checked_sets\n{cert.holds},{cert.scope.describe()},{cert.checked_sets}"
    falsified = [] if cert.holds else [f"falsified with witness {cert.witness.keys()}"]
    return cert.to_json_dict(), csv, falsified


def _cmd_quotient(args) -> tuple:
    group = make_group(args.group)
    budget = _budget(args)
    table = enumerate_ball(group, args.horizon, max_elements=budget)
    # lazy: the growth hypothesis is checked before any record is computed
    records = (folner_exact(group, n, args.cap, max_elements=budget)
               for n in range(1, args.horizon + 1))
    return quotient_estimate(group, args.horizon, records, table).to_json_dict(), None, []


_COMMANDS = {
    "growth": _cmd_growth,
    "phi": _cmd_phi,
    "avg-length": _cmd_avg_length,
    "boundary": _cmd_boundary,
    "check": _cmd_check,
    "transport": _cmd_transport,
    "folner": _cmd_folner,
    "convert": _cmd_convert,
    "certify": _cmd_certify,
    "quotient": _cmd_quotient,
}


def _write(path: str, text: str) -> None:
    """Write ``text`` with exactly one trailing newline to ``path``, or to
    stdout when ``path`` is '-'."""
    text = text.rstrip("\n") + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code: 0 when it succeeds and
    every check holds, 2 when a check is falsified or a suite criterion
    fails, 1 on usage and resource errors."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.command == "suite":
            # imported here: no other subcommand needs the battery
            from .acceptance import run_suite

            text, passed = run_suite()
            falsified = []
        else:
            payload, csv, falsified = _COMMANDS[args.command](args)
            text = csv if getattr(args, "format", None) == "csv" else json.dumps(payload, indent=2)
            passed = not falsified
        _write(args.output, text)
    except (CayleyIsoError, OSError) as exc:
        sys.stderr.write(f"cayleyiso {args.command}: error: {exc}\n")
        return 1
    sys.stderr.writelines(line + "\n" for line in falsified)
    return 0 if passed else 2


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
