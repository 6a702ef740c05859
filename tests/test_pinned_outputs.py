"""The CLI's stdout, bit for bit: SHA-256 digests of seven commands.  Those of
verify, eval and residual were recorded before the coefficient memo became
a tuple and the frozen value types got hand-written constructors; that of
legendre universal before legendre generalized took both solutions from F1's
Kummer pair past zb = 1/2, and that of legendre generalized after it, since
that route moves F2 there by a few units in the last place.  That of
residual was recorded again when every edge power's jet came from one rule,
_power_jet: the edge factor's own jet no longer cancels two 1/(end-r)^2
terms, which moves 276 of the 800 residuals in their last digits (the
largest of each column stays below 3.4e-15), and no value.  That of legendre
generalized was recorded again when past zb = 1/2 its Kummer pair was
summed on w = (r - xi1)/(xi2 - xi1) formed from r, not on 1 - zb, also for
F1 where F2 terminates: 85 of its 400 values move, by at most
4.0e-15 (1 + |F|).  The default text table of eval and the JSON of verify
were recorded before each table came to be printed through one %-template
per row type signature, in chunks of rows: the five CSV digests alone
left the padding of text columns and the quoting of JSON keys and strings
unpinned.  A change that only makes things faster must leave every digest
as it is."""

import hashlib
import json
import subprocess
import sys

import pytest

# tests/test_cli.py's GENERIC coefficients
GENERIC = {
    "a1": -1.5, "b1": 0.3, "a2": 0.1, "b2": -0.6, "a3": -0.4, "b3": 0.05,
    "c3": -0.5, "lambda": 3.2, "xi1": -1.2, "xi2": 0.9,
}
GRID = "--grid=-1.19:0.89:200"

DIGESTS = {
    "verify": "f6b78ffb1d815390d60018062351c0d0040002c0afd93514b0e0939223593984",
    "eval": "fd35038290834238339a30cccf5da112fe6fd3d635905900d995d2d8942731f1",
    "residual": "55fc8d92bd65a73508eb1551a4571cdc2299c39b8356e4213eba0e51ea2911d6",
    "universal": "253a48b13a29413209056b472c3ab7f0cd3a86db72fe6bd2cbfd7c6eab1c724d",
    "generalized": "9893e3803f8e14794ee910bcba8e239b01bae2b5aeea22dae62ac573b902be0d",
    "eval_text": "ad90debd8a4c44ca63d78cb48cab2d10ba3a5480213de1dc078680327e2bdba5",
    "verify_json": "4a53be2fc3390b547ece0b156964239881db24d8c578dce2a3e345201a34836a",
}
# the commands that read no parameter file
ARGS = {
    "verify": ("verify", "--seed", "42", "--cases", "20", "--format", "csv"),
    "verify_json": ("verify", "--seed", "42", "--cases", "20", "--format", "json"),
    "universal": ("legendre", "universal", "--ell", "9.5", "--mprime", "1.5",
                  "--grid=-0.99:0.99:200", "--format", "csv"),
    "generalized": ("legendre", "generalized", "--k", "3.7", "--m", "0.3", "--n", "0.6",
                    "--grid=-0.99:0.99:200", "--format", "csv"),
}
# the commands that read GENERIC from a file: the command and its --format
GENERIC_ARGS = {
    "eval": ("eval", "--format", "csv"),
    "residual": ("residual", "--format", "csv"),
    "eval_text": ("eval",),
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_digest(command, tmp_path):
    if command in ARGS:
        args = ARGS[command]
    else:
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(GENERIC))
        name, *fmt = GENERIC_ARGS[command]
        args = (name, "--params", str(path), GRID, "--branch", "all", *fmt)
    res = subprocess.run([sys.executable, "-m", "hyplegendre", *args],
                         capture_output=True, check=True)
    assert hashlib.sha256(res.stdout).hexdigest() == DIGESTS[command]
