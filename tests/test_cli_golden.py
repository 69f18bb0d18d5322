"""Pinned bit-identity of the command-line output.

One digest covers the stdout and exit code of `cli.main` for `invariants
--json`, `t` and `classify` of every catalog entry at its default parameter
over Q, GF(2) and GF(3), for `verify table1`, and for `enumerate --verify
--out` over GF(2) and GF(3) up to dimension 3, together with the CSV each
census writes. The CSV path in the census output is replaced by a fixed
name, so the digest does not depend on where the test runs.
"""

import hashlib

from schurdefect import catalog
from schurdefect.cli import main
from schurdefect.fields import GF, QQ

CLI_SHA256 = "639a3e7746b43344d02d2b36258421d07f38a777bf31f69e96a374c2aff7ff15"


def _run(capsys, *argv):
    code = main(list(argv))
    return f"$ {' '.join(argv)}\n[{code}]\n{capsys.readouterr().out}"


def _rendering(capsys, tmp_path):
    parts = []
    for spec, field in (("q", QQ), ("gf:2", GF(2)), ("gf:3", GF(3))):
        for e in catalog.list_all(field):
            parts.append(_run(capsys, "invariants", e.key, "--field", spec, "--json"))
            parts.append(_run(capsys, "t", e.key, "--field", spec))
            parts.append(_run(capsys, "classify", e.key, "--field", spec))
    parts.append(_run(capsys, "verify", "table1"))
    for spec in ("gf:2", "gf:3"):
        for n in (1, 2, 3):
            path = tmp_path / f"census_{spec[3:]}_{n}.csv"
            out = _run(capsys, "enumerate", "--dim", str(n), "--field", spec,
                       "--verify", "--out", str(path))
            parts.append(out.replace(str(path), path.name))
            parts.append(path.read_text())
    return "".join(parts)


def test_cli_output_is_bit_identical(capsys, tmp_path):
    digest = hashlib.sha256(_rendering(capsys, tmp_path).encode()).hexdigest()
    assert digest == CLI_SHA256
