import io
import json
import math
import operator
import random
import struct
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout

import pytest

from hyplegendre import BranchId, OdeParams, build_branch, indicial_exponents
from hyplegendre.cli import (
    _CHUNK_ROWS,
    _MAX_GRID_POINTS,
    _SLOTS,
    EXIT_BROKEN_PIPE,
    _cell,
    emit_table,
    fmt17,
    parse_grid,
)
from hyplegendre.errors import InvalidParams, ParseError
from hyplegendre.ode_solutions import _member_of


CLASSICAL = {
    "a1": -2.0, "b1": 0.0, "a2": 0.0, "b2": 0.0, "a3": 0.0, "b3": 0.0,
    "c3": 0.0, "lambda": 6.0, "xi1": -1.0, "xi2": 1.0,
}

GENERIC = {
    "a1": -1.5, "b1": 0.3, "a2": 0.1, "b2": -0.6, "a3": -0.4, "b3": 0.05,
    "c3": -0.5, "lambda": 3.2, "xi1": -1.2, "xi2": 0.9,
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hyplegendre", *args],
        capture_output=True, text=True,
    )


@pytest.fixture()
def classical_file(tmp_path):
    path = tmp_path / "classical.json"
    path.write_text(json.dumps(CLASSICAL))
    return str(path)


class TestGridParsing:
    def test_round_trip(self):
        pts = parse_grid("-0.9:0.9:19")
        assert len(pts) == 19
        assert pts[0] == -0.9 and pts[-1] == 0.9

    @pytest.mark.parametrize("start, stop", [(-1.0, 1.0), (0.2, 1.0), (-1.2, 0.9)])
    def test_end_points_exact(self, start, stop):
        # start + (count-1)*step misses stop for 286 of these counts on
        # (-1, 1), e.g. -1:1:50 ends at 0.9999999999999998, and for all of
        # them on (-1.2, 0.9), where stop - start rounds down
        for count in range(2, 3001):
            pts = parse_grid(f"{start!r}:{stop!r}:{count}")
            assert len(pts) == count
            assert pts[0] == start and pts[-1] == stop
            assert all(map(operator.lt, pts, pts[1:]))

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_grid("1:2")
        with pytest.raises(ParseError):
            parse_grid("a:b:c")

    def test_invariants(self):
        with pytest.raises(InvalidParams):
            parse_grid("1:0:5")
        with pytest.raises(InvalidParams):
            parse_grid("0:1:1")

    @pytest.mark.parametrize("grid", ["-inf:1:3", "0:inf:3", "-1e308:1e308:3"])
    def test_non_finite_grid_exits_3(self, grid, classical_file):
        # these gave a first point of nan and exit 4 (DomainError: r=nan)
        with pytest.raises(InvalidParams):
            parse_grid(grid)
        for args in (("legendre", "universal", "--ell", "3", "--mprime", "1"),
                     ("eval", "--params", classical_file)):
            res = run_cli(*args, f"--grid={grid}")
            assert res.returncode == 3, res.stderr
            assert "InvalidParams" in res.stderr

    def test_count_capped_before_any_point_is_built(self):
        assert len(parse_grid(f"-1:1:{_MAX_GRID_POINTS}")) == _MAX_GRID_POINTS
        with pytest.raises(InvalidParams):
            parse_grid(f"-1:1:{_MAX_GRID_POINTS + 1}")
        # this grid used to grow without bound before printing anything
        start = time.monotonic()
        res = run_cli("legendre", "universal", "--ell", "3", "--mprime", "1",
                      "--grid", "-1:1:100000000000")
        assert res.returncode == 3, res.stderr
        assert time.monotonic() - start < 10.0


def reference_table(headers, rows, fmt):
    """emit_table as it was before its row templates: every cell through
    _cell, and one print per line."""
    if fmt == "csv":
        print(",".join(headers))
        for row in rows:
            print(",".join(_cell(v, fmt) for v in row))
    elif fmt == "json":
        body = []
        for row in rows:
            fields = ", ".join(
                f"{json.dumps(h)}: {_cell(v, fmt)}" for h, v in zip(headers, row)
            )
            body.append("  {" + fields + "}")
        print("[\n" + ",\n".join(body) + "\n]")
    else:
        cells = [headers] + [[_cell(v, fmt) for v in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
        for r in cells:
            print("  ".join(val.ljust(w) for val, w in zip(r, widths)).rstrip())


def printed(table, headers, rows, fmt):
    with redirect_stdout(io.StringIO()) as out:
        table(headers, rows, fmt)
    return out.getvalue()


class Halved(float):
    """A float subclass whose float() is not itself: only _cell prints it."""

    def __float__(self):
        return float.__float__(self) / 2.0


SPECIAL_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e17, 0.1)
TEXTS = ("", "a,b", 'say "hi"', "back\\slash", "%s %d %%", "Ωμέγα", "日本", " pad ",
         "tab\tend", "max", "{}", "\u00e9\u0301")


def random_float(rnd):
    return struct.unpack("<d", rnd.getrandbits(64).to_bytes(8, "little"))[0]


def random_cell(rnd, kind):
    if kind == "float":
        return rnd.choice(SPECIAL_FLOATS) if rnd.random() < 0.2 else random_float(rnd)
    if kind == "int":
        return rnd.choice((0, -7, 2**64, -(2**64) - 1, rnd.getrandbits(100) - 2**99))
    if kind == "bool":
        return rnd.random() < 0.5
    if kind == "str":
        return rnd.choice(TEXTS)
    return Halved(random_float(rnd))


def random_table(rnd):
    """Headers and rows whose columns mostly keep one kind of cell, so that
    row type signatures repeat, with cells of other kinds mixed in."""
    kinds = ("float", "int", "bool", "str", "subclass")
    width = rnd.randint(1, 6)
    headers = [rnd.choice(TEXTS + ("r", "hat1", "max_err")) for _ in range(width)]
    columns = [rnd.choice(kinds) for _ in range(width)]
    count = rnd.choice((0, 1, 2, 3, 17, 40))
    rows = [tuple(random_cell(rnd, rnd.choice(kinds) if rnd.random() < 0.15 else kind)
                  for kind in columns) for _ in range(count)]
    return headers, rows


class TestFormatting:
    def test_17_digits_round_trip(self):
        for x in (0.1, -0.3, 1.0 / 3.0, 2.5e-11, 123456.789):
            assert float(fmt17(x)) == x

    def test_slots_print_what_cell_prints(self):
        # the exact types emit_table formats by template, outside _cell
        rnd = random.Random(24)
        floats = [random_float(rnd) for _ in range(100_000)] + list(SPECIAL_FLOATS)
        for x in floats:
            assert _SLOTS[float] % x == _cell(x, "csv")
        for i in (0, 1, -1, 2**64, -(2**64) - 1, 10**300):
            assert _SLOTS[int] % i == _cell(i, "json")
        for text in TEXTS:
            assert _SLOTS[str] % text == _cell(text, "csv") == _cell(text, "text")

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_tables_match_the_reference(self, fmt):
        rnd = random.Random(f"emit_table {fmt}")
        tables = [random_table(rnd) for _ in range(2000)]
        tables.append((["r", "value"], []))
        for headers, rows in tables:
            assert printed(emit_table, headers, rows, fmt) == printed(
                reference_table, headers, rows, fmt), (headers, rows)

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_tables_past_a_chunk_match_the_reference(self, fmt):
        rnd = random.Random(f"chunks {fmt}")
        headers = ["r", "label", "flag"]
        for count in (_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 5):
            rows = [(random_float(rnd), rnd.choice(TEXTS), rnd.random() < 0.5)
                    for _ in range(count - 1)] + [("max", 1.5, 3)]
            assert printed(emit_table, headers, rows, fmt) == printed(
                reference_table, headers, rows, fmt)

    def test_a_mixed_column_is_filled_a_chunk_at_a_time(self):
        # residual's shape: a first column of floats and one "max".  Its
        # text, filled for the whole column at once, takes about 4 MB here
        rnd = random.Random(27)
        rows = [(random_float(rnd), rnd.random()) for _ in range(50_000)] + [("max", 1.0)]

        class Discard:
            write = staticmethod(len)

        tracemalloc.start()
        try:
            with redirect_stdout(Discard()):
                emit_table(["r", "hat1"], rows, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


class TestSolveCommand:
    def test_prints_the_triples_evaluate_sums(self, tmp_path):
        # formed from c_breve, GENERIC's breve2 triple differs from its
        # Kummer set's member in the last bits: solve prints the member's
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(GENERIC))
        res = run_cli("solve", "--params", str(path), "--format", "csv")
        assert res.returncode == 0, res.stderr
        header, *lines = res.stdout.strip().split("\n")
        p = OdeParams.from_dict(GENERIC)
        exps = indicial_exponents(p)
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [row["branch"] for row in rows] == [bid.value for bid in BranchId]
        for row in rows:
            br = build_branch(p, exps.mu1.second, exps.mu2.second, BranchId(row["branch"]))
            kset, k = _member_of(br)
            t = kset._plan.triple(k)
            assert tuple(float(row[x]) for x in "abc") == (t.a, t.b, t.c), row


class TestExponentsCommand:
    def test_classical_table(self, classical_file):
        res = run_cli("exponents", "--params", classical_file, "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "point,root_lo,root_hi,complex,residual_lo,residual_hi"
        inf_row = [l for l in lines if l.startswith("mu_inf")][0]
        assert inf_row.split(",")[1:3] == ["-2", "3"]
        mu1_row = [l for l in lines if l.startswith("mu1")][0]
        assert [float(v) for v in mu1_row.split(",")[1:3]] == [0.0, 0.0]

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = run_cli("exponents", "--params", str(path))
        assert res.returncode == 2
        assert "malformed JSON" in res.stderr

    def test_missing_field_named(self, tmp_path):
        data = dict(CLASSICAL)
        del data["a3"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        res = run_cli("exponents", "--params", str(path))
        assert res.returncode == 2
        assert "'a3'" in res.stderr

    def test_non_numeric_field_named(self, tmp_path):
        data = dict(CLASSICAL)
        data["b2"] = "x"
        path = tmp_path / "badfield.json"
        path.write_text(json.dumps(data))
        res = run_cli("exponents", "--params", str(path))
        assert res.returncode == 2
        assert "'b2'" in res.stderr

    def test_interval_invariant(self, tmp_path):
        data = dict(CLASSICAL)
        data["xi2"] = data["xi1"]
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(data))
        res = run_cli("exponents", "--params", str(path))
        assert res.returncode == 3


class TestEvalCommand:
    def test_grid_values(self, classical_file):
        res = run_cli("eval", "--params", classical_file,
                      "--grid", "-0.5:0.5:3", "--branch", "hat1",
                      "--mu1-root", "hi", "--mu2-root", "hi",
                      "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "r,hat1"
        r, val = lines[2].split(",")
        assert float(r) == 0.0
        assert float(val) == -0.5  # the degree-2 polynomial at its midpoint

    def test_outside_domain(self, classical_file):
        res = run_cli("eval", "--params", classical_file, "--grid", "-2:2:5")
        assert res.returncode == 4
        assert "DomainError" in res.stderr

    def test_degenerate_branch(self, classical_file):
        res = run_cli("eval", "--params", classical_file,
                      "--grid", "-0.5:0.5:3", "--branch", "hat2")
        assert res.returncode == 4
        assert "DegenerateC" in res.stderr

    def test_branch_all_skips_degenerate(self, classical_file):
        res = run_cli("eval", "--params", classical_file,
                      "--grid", "-0.5:0.5:3", "--branch", "all",
                      "--format", "csv")
        assert res.returncode == 0
        assert res.stdout.startswith("r,hat1,breve1\n")

    def test_json_format(self, classical_file):
        res = run_cli("eval", "--params", classical_file,
                      "--grid", "-0.5:0.5:5", "--format", "json")
        assert res.returncode == 0
        rows = json.loads(res.stdout)
        assert len(rows) == 5
        assert set(rows[0]) == {"r", "hat1"}

    def test_verbose(self, classical_file):
        args = ("eval", "--params", classical_file, "--grid", "-0.5:0.5:3",
                "--format", "csv")
        quiet, verbose = run_cli(*args), run_cli("--verbose", *args)
        assert quiet.returncode == verbose.returncode == 0
        assert verbose.stderr == "done\n"
        assert verbose.stdout == quiet.stdout


class TestNonFiniteValues:
    # mu1 = -600 on the lo root: the edge prefactor leaves the float range
    OVERFLOW = {"a1": 0, "b1": 600, "a2": 0, "b2": 0, "a3": 0, "b3": 0,
                "c3": 0, "lambda": 2, "xi1": -1, "xi2": 1}

    @pytest.fixture()
    def overflow_file(self, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(self.OVERFLOW))
        return str(path)

    @pytest.mark.parametrize("command", ["eval", "residual"])
    def test_inf_is_an_error(self, overflow_file, command):
        res = run_cli(command, "--params", overflow_file, "--mu1-root", "lo",
                      "--grid", "-0.9:0.9:3")
        assert res.returncode == 4
        assert "DomainError" in res.stderr and "not finite" in res.stderr
        assert res.stdout == ""

    def test_overflow_is_an_error_not_a_traceback(self, overflow_file):
        res = run_cli("eval", "--params", overflow_file, "--mu1-root", "lo",
                      "--grid", "-0.999:-0.99:2")
        assert res.returncode == 4
        assert res.stderr.startswith("error: DomainError")
        assert "leaves the float range" in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("command", ["eval", "residual"])
    def test_member_power_overflow_typed_for_values_and_jets(self, overflow_file, command):
        # hat2's z^-299 at z = 1e-3: residual, through the jets, printed the
        # bare OverflowError where eval printed a DomainError of its own words
        res = run_cli(command, "--params", overflow_file, "--branch", "hat2",
                      "--grid=-0.998:-0.99:2")
        assert res.returncode == 4
        assert res.stderr == ("error: DomainError: 0.0010000000000000009^-299.0 "
                              "leaves the float range\n")
        assert res.stdout == ""

    @pytest.mark.parametrize("command, data, message", [
        # B^2 of the monic quadratic at xi1: printed roots inf, residuals nan, exit 0
        (("exponents",), {**CLASSICAL, "a1": 1e200}, "mu1 roots (0.0, inf) are not finite"),
        (("legendre", "universal", "--grid", "-0.5:0.5:5"),  # m^2: a bare OverflowError
         None, "1e+200^2 leaves the float range"),
    ])
    def test_squares_past_the_float_range_exit_4(self, tmp_path, command, data, message):
        if data is None:
            args = (*command, "--ell", "3", "--mprime", "1", "--m", "1e200")
        else:
            path = tmp_path / "big.json"
            path.write_text(json.dumps(data))
            args = (*command, "--params", str(path))
        res = run_cli(*args)
        assert res.returncode == 4
        assert res.stderr == f"error: DomainError: {message}\n"
        assert res.stdout == ""

    @pytest.mark.parametrize("command, data, key", [
        (("exponents",), CLASSICAL, "a1"),
        (("legendre", "universal", "--grid", "-0.5:0.5:5"),
         {"ell": 3.0, "mprime": 1.0, "a": 0.0, "b": 0.0, "c": 0.0, "m": 1.0,
          "lambda": 12.0, "n_index": 2}, "ell"),
    ])
    def test_params_file_integer_past_the_float_range_exit_3(self, tmp_path, command,
                                                             data, key):
        # was an untyped OverflowError from float() in from_dict, exit 4
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**data, key: 10 ** 400}))
        res = run_cli(*command, "--params", str(path))
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error: InvalidParams") and f"'{key}'" in res.stderr

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("command, data, key", [
        (("exponents",), CLASSICAL, "lambda"),
        (("legendre", "universal", "--grid", "-0.5:0.5:5"),
         {"ell": 3.0, "mprime": 1.0, "a": 0.0, "b": 0.0, "c": 0.0, "m": 1.0,
          "lambda": 12.0, "n_index": 2}, "ell"),
    ])
    def test_params_file_non_finite_field_is_named_by_its_key(self, tmp_path, command,
                                                             data, key, bad):
        # "lambda": NaN was reported as the pack's field 'lam', a key the
        # file does not have, and neither message named the file
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**data, key: bad}))
        res = run_cli(*command, "--params", str(path))
        assert res.returncode == 3, res.stderr
        assert res.stderr == f"error: InvalidParams: '{path}': field '{key}' must be finite\n"
        assert res.stdout == ""


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
class TestClosedStdout:
    UNIVERSAL = ("legendre", "universal", "--ell", "9.5", "--mprime", "1.5")

    def piped(self, grid, lines, fmt):
        """The exit code and stderr of the CLI when its reader takes `lines`
        lines of stdout and closes it, as `| head -1` does."""
        proc = subprocess.Popen([sys.executable, "-m", "hyplegendre", *self.UNIVERSAL,
                                 f"--grid={grid}", "--format", fmt],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), err

    def test_closed_while_printing(self, fmt):
        # 20,000 rows, many chunks and past any pipe buffer: a write fails
        code, err = self.piped("-0.99:0.99:20000", 1, fmt)
        assert (code, err) == (EXIT_BROKEN_PIPE, "")

    def test_closed_before_the_first_write(self, fmt):
        # three rows stay in stdout's buffer until the flush that fails
        code, err = self.piped("-0.99:0.99:3", 0, fmt)
        assert (code, err) == (EXIT_BROKEN_PIPE, "")


class TestResidualCommand:
    def test_max_row(self, classical_file):
        res = run_cli("residual", "--params", classical_file,
                      "--grid", "-0.9:0.9:7", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "r,hat1"
        assert lines[-1].startswith("max,")
        worst = float(lines[-1].split(",")[1])
        assert worst <= 1e-10

    def test_max_row_per_column(self, tmp_path):
        # generic coefficients: the four branches' residuals peak at
        # different points, so one shared maximum would be wrong somewhere
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(GENERIC))
        res = run_cli("residual", "--params", str(path),
                      "--grid", "-1.1:0.8:9", "--branch", "all", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "r,hat1,hat2,breve1,breve2"
        body = [[float(v) for v in line.split(",")[1:]] for line in lines[1:-1]]
        assert len(body) == 9
        label, *maxima = lines[-1].split(",")
        assert label == "max"
        columns = list(zip(*body))
        assert [float(v) for v in maxima] == [max(col) for col in columns]
        assert len(set(maxima)) > 1

    def test_dense_grid_end_to_end(self, tmp_path):
        # 10^4 points, the per-row grid path of the cut-table kernels: every
        # branch's largest normalized residual stays small
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(GENERIC))
        res = run_cli("residual", "--params", str(path), "--grid=-1.19:0.89:10000",
                      "--branch", "all", "--format", "csv")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "r,hat1,hat2,breve1,breve2"
        assert len(lines) == 10002
        label, *maxima = lines[-1].split(",")
        assert label == "max" and len(maxima) == 4
        assert all(float(v) <= 1e-8 for v in maxima), maxima


class TestLegendreCommands:
    def test_universal_contract(self):
        res = run_cli("legendre", "universal", "--ell", "3", "--mprime", "1",
                      "--grid", "-0.9:0.9:19", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "r,value"
        assert len(lines) == 20  # header + 19 rows

    def test_universal_grid_ends_on_its_end_point(self):
        # the last point of 0.2:1:12 used to be 1.0000000000000002, outside
        # the domain [-1, 1]
        res = run_cli("legendre", "universal", "--ell", "3", "--mprime", "1",
                      "--grid", "0.2:1:12", "--format", "csv")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().split("\n")
        assert len(lines) == 13
        assert lines[-1].split(",")[0] == "1"

    @pytest.mark.parametrize("ell", ["80", "201"])
    def test_universal_high_degree_matches_mpmath(self, ell):
        # degree 80 exited 4 (NoConvergence: the alternating sum lost its
        # digits); each value is now within 2e-12 (1 + |F|) of minus the
        # normalized mpmath.legenp (zeroprec lets it return its zero at r = 0)
        mpmath = pytest.importorskip("mpmath")
        res = run_cli("legendre", "universal", "--ell", ell, "--mprime", "1",
                      "--grid", "-0.9:0.9:5", "--format", "csv")
        assert res.returncode == 0, res.stderr
        rows = [line.split(",") for line in res.stdout.strip().split("\n")[1:]]
        assert len(rows) == 5
        n = int(ell)
        for r, value in rows:
            with mpmath.workdps(30):
                want = float(-mpmath.sqrt((2 * n + 1) * mpmath.factorial(n - 1)
                                          / (2 * mpmath.factorial(n + 1)))
                             * mpmath.legenp(n, 1, float(r), zeroprec=200))
            assert abs(float(value) - want) <= 2e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("ell, mprime", [
        ("nan", "1"), ("3", "nan"), ("inf", "1"), ("1e300", "1")])
    def test_universal_non_finite_or_capped_degrees_exit_3(self, ell, mprime):
        # nan ended in an untyped ValueError traceback (exit 1), inf in exit
        # 4 with OverflowError; 1e300 must not start a 1e300-step recurrence
        start = time.monotonic()
        res = run_cli("legendre", "universal", "--ell", ell, "--mprime", mprime,
                      "--grid", "-0.5:0.5:3")
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error: InvalidParams")
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("n_index", ["2.7", "NaN", "Infinity", "1001"])
    def test_universal_params_file_bad_n_index_exit_3(self, tmp_path, n_index):
        # 2.7 was a parse error, NaN an untyped ValueError traceback and
        # Infinity an OverflowError
        path = tmp_path / "u.json"
        path.write_text(
            '{"ell": 3.0, "mprime": 1.0, "a": 0.0, "b": 0.0, "c": 0.0, '
            f'"m": 1.0, "lambda": 12.0, "n_index": {n_index}}}')
        res = run_cli("legendre", "universal", "--params", str(path),
                      "--grid", "-0.5:0.5:5")
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error: InvalidParams")

    def test_universal_params_file(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({
            "ell": 3.0, "mprime": 1.0, "a": 0.0, "b": 0.0, "c": 0.0,
            "m": 1.0, "lambda": 12.0, "n_index": 2,
        }))
        res = run_cli("legendre", "universal", "--params", str(path),
                      "--grid", "-0.5:0.5:5", "--format", "csv")
        assert res.returncode == 0

    def test_universal_inconsistent_params(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({
            "ell": 3.0, "mprime": 1.0, "a": 0.0, "b": 0.0, "c": 0.0,
            "m": 1.0, "lambda": 5.0, "n_index": 2,
        }))
        res = run_cli("legendre", "universal", "--params", str(path),
                      "--grid", "-0.5:0.5:5")
        assert res.returncode == 3

    def test_generalized_matches_recurrence(self):
        res = run_cli("legendre", "generalized", "--k", "2", "--m", "0",
                      "--n", "0", "--grid", "0.5:0.5001:2", "--format", "csv")
        assert res.returncode == 0
        first = res.stdout.strip().split("\n")[1].split(",")
        assert abs(float(first[1]) - (-0.125)) <= 1e-12

    def test_generalized_params_file_prints_the_flag_form(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"k": 2.5, "m": 0.5, "n": 1.5}))
        from_file = run_cli("legendre", "generalized", "--params", str(path),
                            "--grid=-0.8:0.8:9")
        from_flags = run_cli("legendre", "generalized", "--k", "2.5", "--m", "0.5",
                             "--n", "1.5", "--grid=-0.8:0.8:9")
        assert from_file.returncode == from_flags.returncode == 0, from_file.stderr
        assert from_file.stdout == from_flags.stdout and from_file.stdout.count("\n") >= 9

    @pytest.mark.parametrize("fields, named", [
        ({"k": 2.5, "m": 0.5}, "missing field 'n'"),
        ({"k": 2.5, "m": 0.5, "n": 1.5, "ell": 3.0}, "unknown field 'ell'"),
    ])
    def test_generalized_params_file_bad_keys_exit_2(self, tmp_path, fields, named):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(fields))
        res = run_cli("legendre", "generalized", "--params", str(path),
                      "--grid=-0.8:0.8:9")
        assert res.returncode == 2
        assert res.stderr.startswith("error: ParseError") and named in res.stderr
        assert res.stdout == ""

    def test_generalized_degree_past_the_float_range_names_k(self):
        # k(k+1) = inf was reported as the CLI's own field 'lam', which the
        # user never gave
        res = run_cli("legendre", "generalized", "--k", "1e200", "--m", "0",
                      "--n", "0", "--grid=-0.5:0.5:3")
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error: InvalidParams")
        assert "'k'" in res.stderr and "lam" not in res.stderr


class TestVerifyCommand:
    def test_small_run_passes(self):
        res = run_cli("verify", "--seed", "42", "--cases", "10",
                      "--tol", "1e-8", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "suite,cases,passed,failed,max_err"
        assert len(lines) == 7

    def test_deterministic_output(self):
        a = run_cli("verify", "--seed", "9", "--cases", "5", "--format", "csv")
        b = run_cli("verify", "--seed", "9", "--cases", "5", "--format", "csv")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_single_suite_selection(self):
        res = run_cli("verify", "--seed", "1", "--cases", "5",
                      "--suite", "duplication", "--format", "csv")
        assert res.returncode == 0
        assert len(res.stdout.strip().split("\n")) == 2

    def test_impossible_tol_fails(self):
        res = run_cli("verify", "--seed", "1", "--cases", "3",
                      "--tol", "1e-300")
        assert res.returncode == 1

    @pytest.mark.parametrize("args, message", [
        (("--cases", "0"), "cases must be at least 1"),
        (("--tol", "-1"), "tol must be positive"),
        (("--cases", "0", "--tol", "-1"), "cases must be at least 1"),
    ])
    def test_bad_cases_or_tol_exit_3(self, args, message):
        res = run_cli("verify", *args)
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr == f"error: InvalidParams: {message}\n"

    def test_clean_stdout_stderr_contract(self):
        res = run_cli("verify", "--seed", "3", "--cases", "3", "--format", "csv")
        assert res.returncode == 0
        assert res.stderr == ""
