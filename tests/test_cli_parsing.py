"""How the command line is read: a usage error exits 2 with a message on
stderr and nothing on stdout, an option value may start with '-' after a
space as after '=', and importing the CLI loads the standard library only."""

import subprocess
import sys

import pytest

from test_cli import classical_file, run_cli  # noqa: F401  (a fixture)

PARAMS = object()  # stands for the classical parameter file's path


@pytest.mark.parametrize("args", [
    pytest.param(("eval", "--params", PARAMS, "--grid", "-0.5:0.5:3", "--nope"),
                 id="unknown-option"),
    pytest.param(("eval", "--params", PARAMS, "--grid", "-0.5:0.5:3", "--branch", "nope"),
                 id="bad-branch"),
    pytest.param(("eval", "--params", PARAMS), id="eval-without-grid"),
    pytest.param(("verify", "--cases", "2", "--format", "xml"), id="bad-format"),
    pytest.param(("eval", "--params", PARAMS, "--gr=-0.5:0.5:3"), id="option-prefix"),
    pytest.param(("--verbose",), id="no-subcommand"),
    pytest.param(("legendre",), id="legendre-without-family"),
    pytest.param(("verify", "--cases", "2", "--verbose"), id="verbose-after-subcommand"),
])
def test_usage_error_exits_2(args, classical_file):
    res = run_cli(*(classical_file if a is PARAMS else a for a in args))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert res.stderr.strip()


@pytest.mark.parametrize("command, options", [
    (("eval", "--params", PARAMS), (("--grid", "-0.5:0.5:3"),)),
    (("legendre", "generalized", "--k", "2.5", "--n", "0.6"),
     (("--m", "-0.5"), ("--grid", "-0.8:0.8:5"))),
    (("legendre", "universal", "--ell", "3", "--mprime", "1", "--a", "1e-3"),
     (("--c", "-1e-3"), ("--m", "-1"), ("--grid", "-0.9:0.9:5"))),
    (("verify", "--cases", "2"), (("--seed", "-1"),)),
])
def test_value_starting_with_minus(command, options, classical_file):
    # plain argparse reads a token that starts with '-' as an option, not as
    # the value of the option before it
    command = [classical_file if a is PARAMS else a for a in command]
    spaced = run_cli(*command, *(t for pair in options for t in pair), "--format", "csv")
    joined = run_cli(*command, *(f"{o}={v}" for o, v in options), "--format", "csv")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout != ""


def test_cli_imports_only_the_stdlib():
    # the modules the interpreter loaded at start-up (site hooks among them)
    # are not the package's
    code = ("import sys; before = set(sys.modules); import hyplegendre.cli; "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    loaded = res.stdout.split()
    assert "hyplegendre" in loaded
    foreign = [m for m in loaded if m != "hyplegendre" and m not in sys.stdlib_module_names]
    assert foreign == []
