"""Command-line front end.

Subcommands read JSON parameter files, evaluate the solution families on
grids, check residuals, and run the seeded verification suites.  Tables go
to stdout as CSV, JSON or aligned text; diagnostics go to stderr.

Exit codes: 0 success, 1 verification failure, 2 parse error,
3 invariant violation, 4 numerical error, 141 stdout closed early.

Examples:

    hyplegendre exponents --params ode.json
    hyplegendre eval --params ode.json --grid -0.9:0.9:19 --branch hat1
    hyplegendre legendre universal --ell 3 --mprime 1 --grid -0.9:0.9:19 --format csv
    hyplegendre verify --seed 42 --cases 100 --tol 1e-8
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import repeat
from operator import itemgetter

from . import legendre_families as lf
from . import ode_solutions as ode
from .errors import (
    ComplexExponent,
    DegenerateCase,
    DomainError,
    Error,
    InvalidParams,
    ParseError,
)
from .verify import SUITE_NAMES, run_all

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer a closed pipe ended

_MAX_GRID_POINTS = 1_000_000  # every row is built before any is printed
_CHUNK_ROWS = 1024  # rows per write to stdout
_SLOTS = {float: "%.17g", int: "%s", str: "%s"}  # exact types whose %-slot prints _cell's text


def fmt17(x: float) -> str:
    """17 significant digits: enough to round-trip any double."""
    return format(float(x), ".17g")


def _cell(value, fmt: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt17(value)
    if fmt == "json" and isinstance(value, str):
        return json.dumps(value)
    return str(value)


def emit_table(headers: list[str], rows: list[tuple], fmt: str) -> None:
    """Print a table whose rows have one cell per header on stdout, through
    one %-template per table.  A column whose cells are all of one exact
    float, int or (outside JSON) str type gets that type's _SLOTS slot; any
    other gets %s, filled with _cell's text a chunk at a time (text formats
    every cell first, to pad the columns by one width template).  Each write
    takes _CHUNK_ROWS rows."""
    typed = {t: slot for t, slot in _SLOTS.items() if t is not str or fmt != "json"}
    kinds = [set(map(type, map(itemgetter(i), rows))) for i in range(len(headers))]
    slots = [typed.get(*types) if len(types) == 1 else None for types in kinds]

    def filled(chunk):
        """The chunk's columns, _cell's text in each without a slot."""
        return [map(itemgetter(i), chunk) if slot else
                map(_cell, map(itemgetter(i), chunk), repeat(fmt)) for i, slot in enumerate(slots)]

    if fmt == "text":
        cells = [list(map((slot or "%s").__mod__, column))
                 for slot, column in zip(slots, filled(rows))]
        template = "  ".join(f"%-{max(map(len, (h, *column)))}s"
                             for h, column in zip(headers, cells))
        head, lead, sep, tail = (template % tuple(headers)).rstrip(), "\n", "\n", "\n"
        rows, slots = list(zip(*cells)), ["%s"] * len(cells)  # rows of text, nothing to fill
    else:
        keys = [json.dumps(h).replace("%", "%%") + ": " if fmt == "json" else "" for h in headers]
        keyed = [key + (slot or "%s") for key, slot in zip(keys, slots)]
        template = "  {%s}" % ", ".join(keyed) if fmt == "json" else ",".join(keyed)
        head, lead, sep, tail = (("[\n", "", ",\n", "\n]\n") if fmt == "json"
                                 else (",".join(headers), "\n", "\n", "\n"))
    write = sys.stdout.write
    write(head)
    for i in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[i:i + _CHUNK_ROWS]
        lines = map(template.__mod__, chunk if all(slots) else zip(*filled(chunk)))
        write(lead + sep.join(map(str.rstrip, lines) if fmt == "text" else lines))
        lead = sep
    write(tail)


def _finite(rows: list[tuple]) -> list[tuple]:
    """The rows of a result table, or DomainError at the first value past
    the first column that is not finite: no command reports inf or nan."""
    for row in rows:
        for value in row[1:]:
            if not math.isfinite(value):
                raise DomainError(f"value {value!r} at r={row[0]!r} is not finite")
    return rows


def _load_json_fields(path: str, keys: tuple[str, ...]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in '{path}': {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"'{path}': expected a JSON object of parameters")
    for key in keys:
        if key not in data:
            raise ParseError(f"'{path}': missing field '{key}'")
    for key in data:
        if key not in keys:
            raise ParseError(f"'{path}': unknown field '{key}'")
    for key in keys:
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"'{path}': field '{key}' must be a number")
        try:
            if not math.isfinite(value):  # a JSON integer has no size limit
                raise InvalidParams(f"'{path}': field '{key}' must be finite")
        except OverflowError as exc:
            raise InvalidParams(f"'{path}': field '{key}' is past the float range") from exc
    return data


def _load(cls, path: str):
    """The parameter pack of class cls in the JSON file at path."""
    return cls.from_dict(_load_json_fields(path, cls._keys))


def parse_grid(text: str) -> list[float]:
    """The count evenly spaced points of a start:stop:count grid; the last
    one is stop itself, which start + (count-1)*step can miss by an ulp.
    The step must be finite and count at most _MAX_GRID_POINTS."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid '{text}' must look like start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ParseError(f"grid '{text}': {exc}") from exc
    if not start < stop:
        raise InvalidParams(f"grid start {start!r} must be below stop {stop!r}")
    if not 2 <= count <= _MAX_GRID_POINTS:
        raise InvalidParams(f"grid count must be from 2 to {_MAX_GRID_POINTS}, got {count}")
    step = (stop - start) / (count - 1)
    if not math.isfinite(step):  # an infinite end, or stop - start past the float range
        raise InvalidParams(f"grid '{text}' has no finite step")
    return [start + i * step for i in range(count - 1)] + [stop]


def _pick_root(pair: ode.RootPair, which: str, label: str) -> float:
    if pair.is_complex:
        raise ComplexExponent(f"{label} roots are a complex pair")
    return pair.first if which == "lo" else pair.second


def exponents(params_path, fmt):
    """Indicial roots at both singular points and at infinity."""
    p = _load(ode.OdeParams, params_path)
    exps = ode.indicial_exponents(p)
    rows = []
    for name, pair in (("mu1", exps.mu1), ("mu2", exps.mu2),
                       ("mu_inf", exps.mu_inf)):
        if pair.is_complex:
            res1 = res2 = ode.root_residual(p, name, complex(*pair.as_tuple()))
        else:
            res1 = ode.root_residual(p, name, pair.first)
            res2 = ode.root_residual(p, name, pair.second)
        rows.append((name, pair.first, pair.second, pair.is_complex,
                     res1, res2))
    emit_table(
        ["point", "root_lo", "root_hi", "complex", "residual_lo", "residual_hi"],
        rows, fmt)


def _build_selected(p, mu1_root, mu2_root, branch_options, default_all):
    """The chosen indicial roots and the requested branches built on them;
    'all' (or the default set) quietly drops degenerate branches,
    explicitly named ones raise."""
    exps = ode.indicial_exponents(p)
    mu1 = _pick_root(exps.mu1, mu1_root, "mu1")
    mu2 = _pick_root(exps.mu2, mu2_root, "mu2")
    explicit = bool(branch_options) and "all" not in branch_options
    if explicit:
        wanted = dict.fromkeys(map(ode.BranchId, branch_options))
    else:
        wanted = ode.BranchId if branch_options or default_all else [ode.BranchId.HAT1]
    built = []
    for bid in wanted:
        try:
            built.append((bid, ode.build_branch(p, mu1, mu2, bid)))
        except DegenerateCase:
            if explicit:
                raise
    if not built:
        raise DegenerateCase("no branch is buildable for these exponents")
    return mu1, mu2, built


def _grid_setup(params_path, grid_text, branches, mu1_root, mu2_root):
    """The parameters, grid points and branches of eval and residual, read
    in the order that decides which error is reported first."""
    p = _load(ode.OdeParams, params_path)
    points = parse_grid(grid_text)
    _, _, built = _build_selected(p, mu1_root, mu2_root, branches, default_all=False)
    return p, points, built


def solve(params_path, branches, mu1_root, mu2_root, fmt):
    """Construct the closed-form branches and print their parameters."""
    p = _load(ode.OdeParams, params_path)
    mu1, mu2, built = _build_selected(p, mu1_root, mu2_root, branches,
                                      default_all=True)
    rows = []
    for bid, br in built:
        degree = br.hyp.terminating_degree
        rows.append((
            bid.value, mu1, mu2, br.hyp.a, br.hyp.b, br.hyp.c,
            br.extra_power, br.map.variant.value,
            degree if degree is not None else "",
        ))
    emit_table(
        ["branch", "mu1", "mu2", "a", "b", "c", "extra_power", "map",
         "terminating_degree"],
        rows, fmt)


def eval_cmd(params_path, grid_text, branches, mu1_root, mu2_root, fmt):
    """Evaluate solution branches on a grid."""
    _, points, built = _grid_setup(params_path, grid_text, branches, mu1_root, mu2_root)
    rows = [(r, *(ode.evaluate(br, r) for _, br in built)) for r in points]
    emit_table(["r"] + [bid.value for bid, _ in built], _finite(rows), fmt)


def residual(params_path, grid_text, branches, mu1_root, mu2_root, fmt):
    """Per-point normalized equation residuals of a branch, plus the max."""
    p, points, built = _grid_setup(params_path, grid_text, branches, mu1_root, mu2_root)
    rows = [(r, *(ode.residual(br, p, r) for _, br in built)) for r in points]
    rows.append(("max", *(max(map(itemgetter(i), rows)) for i in range(1, len(built) + 1))))
    emit_table(["r"] + [bid.value for bid, _ in built], _finite(rows), fmt)


def universal(params_path, ell, mprime, a_coef, c_coef, m_coef,
              grid_text, fmt):
    """Universal polynomial family values on a grid."""
    points = parse_grid(grid_text)
    if params_path is not None:
        u = _load(lf.UniversalParams, params_path)
    else:
        if ell is None or mprime is None:
            raise ParseError("give either --params or both --ell and --mprime")
        u = lf.UniversalParams.from_degrees(
            ell=ell, mprime=mprime, a=a_coef, c=c_coef, m=m_coef)
    rows = [(r, lf.universal_sum(u, r)) for r in points]
    emit_table(["r", "value"], _finite(rows), fmt)


def generalized(params_path, k_deg, m_ord, n_ord, xi1, xi2, grid_text, fmt):
    """Generalized two-order family (both solutions) on a grid.

    Uses the standard exponent choice mu1 = n/2, mu2 = -m/2.
    """
    points = parse_grid(grid_text)
    if params_path is not None:
        t = _load(lf.LegendreTriple, params_path)
    else:
        if k_deg is None or m_ord is None or n_ord is None:
            raise ParseError("give either --params or all of --k, --m, --n")
        t = lf.LegendreTriple(k=k_deg, m=m_ord, n=n_ord)
    lam = t.k * (t.k + 1.0)
    if not math.isfinite(lam):  # named by the field given, not OdeParams' own
        raise InvalidParams(f"field 'k' must have a finite k(k+1), got k={t.k!r}")
    p = ode.OdeParams(a1=-2.0, b1=0.0, a2=0.0, b2=0.0, a3=0.0, b3=0.0,
                      c3=0.0, lam=lam, xi1=xi1, xi2=xi2)
    mu1, mu2 = t.n / 2.0, -t.m / 2.0
    rows = [(r, *lf.generalized_solutions(t, mu1, mu2, p, r)) for r in points]
    emit_table(["r", "f1", "f2"], _finite(rows), fmt)


def verify(seed, cases, tol, suites, fmt):
    """Seeded property suites; exits 0 only if every case passes."""
    results = run_all(seed=seed, cases=cases, tol=tol, suites=suites or SUITE_NAMES)
    rows = [(r.name, r.cases, r.passed, r.failed, r.max_err) for r in results]
    emit_table(["suite", "cases", "passed", "failed", "max_err"], rows, fmt)
    return EXIT_OK if all(r.failed == 0 for r in results) else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """A parser that refuses option prefixes and has --help but no -h.  A
    token that starts with -<digit> or -.<digit>, which no option here does,
    is a value: argparse would take --grid -0.9:0.9:19 or --c -1e-3 for an
    option missing its value, unless the token looks like a plain number."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")
        self.add_argument("--help", action="help", help="Show this message and exit.")


def _command(subparsers, name: str, command) -> argparse.ArgumentParser:
    """The subparser that runs `command`, and the --format of its table."""
    doc = command.__doc__
    p = subparsers.add_parser(name, help=doc.split("\n")[0], description=doc)
    p.set_defaults(command=command)
    p.add_argument("--format", dest="fmt", choices=["csv", "json", "text"], default="text",
                   help="Output table format (default: %(default)s).")
    return p


def _params(p, help: str | None = None, required: bool = True) -> None:
    p.add_argument("--params", dest="params_path", metavar="PATH", required=required, help=help)


def _grid(p) -> None:
    p.add_argument("--grid", dest="grid_text", metavar="START:STOP:COUNT", required=True)


def _branches(p, help: str) -> None:
    """--branch, repeatable; the roots of both quadratics to build on."""
    p.add_argument("--branch", dest="branches", action="append",
                   choices=[b.value for b in ode.BranchId] + ["all"], help=help)
    for which, quadratic in (("mu1", "first"), ("mu2", "second")):
        p.add_argument(f"--{which}-root", choices=["lo", "hi"], default="hi",
                       help=f"Which root of the {quadratic} quadratic (default: %(default)s).")


def _parser() -> argparse.ArgumentParser:
    """The command line: a subparser per command, which names its function."""
    parser = _Parser(prog="hyplegendre", description=main.__doc__)
    parser.add_argument("--verbose", action="store_true", help="Progress notes on stderr.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    _params(_command(commands, "exponents", exponents), help="OdeParams JSON file.")

    p = _command(commands, "solve", solve)
    _params(p)
    _branches(p, "Branch to construct (repeatable); default all.")
    for name, command, verb in (("eval", eval_cmd, "evaluate"), ("residual", residual, "check")):
        p = _command(commands, name, command)
        _params(p)
        _grid(p)
        _branches(p, f"Branch to {verb} (repeatable); default hat1.")

    legendre = commands.add_parser("legendre", help="The two named solution families.")
    families = legendre.add_subparsers(metavar="FAMILY", required=True)
    p = _command(families, "universal", universal)
    _params(p, "UniversalParams JSON file (overrides the flags below).", required=False)
    p.add_argument("--ell", type=float, help="Total degree.")
    p.add_argument("--mprime", type=float, help="Weight exponent (order).")
    p.add_argument("--a", dest="a_coef", type=float, default=0.0, help="(default: %(default)s)")
    p.add_argument("--c", dest="c_coef", type=float, default=0.0, help="(default: %(default)s)")
    p.add_argument("--m", dest="m_coef", type=float,
                   help="Magnetic-type coefficient; defaults to mprime.")
    _grid(p)
    p = _command(families, "generalized", generalized)
    _params(p, "LegendreTriple JSON file (overrides --k/--m/--n).", required=False)
    for flag, dest in (("--k", "k_deg"), ("--m", "m_ord"), ("--n", "n_ord")):
        p.add_argument(flag, dest=dest, type=float)
    p.add_argument("--xi1", type=float, default=-1.0, help="(default: %(default)s)")
    p.add_argument("--xi2", type=float, default=1.0, help="(default: %(default)s)")
    _grid(p)

    p = _command(commands, "verify", verify)
    p.add_argument("--seed", type=int, default=42,
                   help="Base seed of the SplitMix64 case generator (default: %(default)s).")
    p.add_argument("--cases", type=int, default=100,
                   help="Cases per suite (default: %(default)s).")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="Acceptance tolerance per case (default: %(default)s).")
    p.add_argument("--suite", dest="suites", action="append", choices=SUITE_NAMES,
                   help="Run only the named suites (repeatable).")
    return parser


def _run(args: argparse.Namespace) -> None:
    """Run the parsed command: a library error or an ArithmeticError (float
    overflow, division by zero) is one line on stderr and the exit code of
    its class, stdout closed by its reader EXIT_BROKEN_PIPE; otherwise the
    command's return value, or 0, after 'done' on stderr under --verbose."""
    kwargs = dict(vars(args))
    command, verbose = kwargs.pop("command"), kwargs.pop("verbose")
    try:
        code = command(**kwargs)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except (Error, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            sys.exit(EXIT_PARSE)
        sys.exit(EXIT_INVARIANT if isinstance(exc, InvalidParams) else EXIT_NUMERICAL)
    except BrokenPipeError:  # the rest goes to devnull, or the flush at exit raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    if verbose:
        print("done", file=sys.stderr)
    sys.exit(code if code is not None else EXIT_OK)


def main(argv: list[str] | None = None) -> None:
    """Closed-form hypergeometric solutions of a generalized Legendre-type
    equation class, with residual and identity verification."""
    _run(_parser().parse_args(argv))


if __name__ == "__main__":
    main()
