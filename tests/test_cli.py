import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import central_document, random_invertible
import schurdefect
from schurdefect import catalog
from schurdefect.algebra import MAX_BRACKETS, MAX_DIM, change_basis, direct_sum
from schurdefect.cli import main
from schurdefect.errors import DocumentError
from schurdefect.fields import QQ
from schurdefect.invariants import t_invariant
from schurdefect.serialize import dumps, loads


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--field", "q")
    assert code == 0
    assert "L4_3" in out and "L6_28" in out
    assert "L2_6_1" not in out
    code, out, _ = run(capsys, "catalog", "--field", "gf:2")
    assert code == 0
    assert "L2_6_1" in out and "L6_28" not in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    payload = json.loads(out)
    rows = {e["key"]: tuple(e["table_row"]) for e in payload}
    assert rows["L6_26"] == (3, 3, 3)


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", "L5_7")
    assert code == 0
    assert "t(L):                2" in out
    assert "nilpotency class:    4" in out


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "L5_7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == 2
    assert payload["lcs_dims"] == [5, 3, 2, 1, 0]
    assert payload["moneyhun_bound_holds"] is True


def test_t_subcommand(capsys):
    code, out, _ = run(capsys, "t", "L4_3")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "t", "F9")
    assert code == 0 and out.strip() == "9"


def test_classify_key(capsys):
    code, out, _ = run(capsys, "classify", "L5_6")
    assert code == 0 and out.strip() == "L5_6+A(0)"


def test_classify_file(capsys, tmp_path):
    rng = random.Random(83)
    L = direct_sum(catalog.heisenberg(QQ, 2), catalog.abelian(QQ, 1))
    M = change_basis(L, random_invertible(QQ, 6, rng))
    M.name = "mystery"
    path = tmp_path / "mystery.json"
    path.write_text(dumps(M))
    code, out, _ = run(capsys, "classify", "--file", str(path))
    assert code == 0
    assert out.strip() == "heisenberg(2)+A(1)"


def test_verify_table1(capsys):
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 0
    assert "0 failures" in out


def test_parameterized_key_with_param(capsys):
    code, out, _ = run(capsys, "t", "L6_19", "--param", "2")
    assert code == 0 and out.strip() == "4"
    # defaulted parameter
    code, out, _ = run(capsys, "invariants", "L6_22")
    assert code == 0


def test_enumerate(capsys, tmp_path):
    out_path = tmp_path / "census.csv"
    code, out, _ = run(capsys, "enumerate", "--dim", "3", "--field", "gf:2",
                       "--verify", "--out", str(out_path))
    assert code == 0
    assert "512 candidates, 120 Lie algebras, 8 nilpotent" in out
    assert "[pass]" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "tensor_id,n,dim_derived,dim_center,d,t,verdict"
    assert len(lines) == 9


# SHA-256 of the GF(2) n = 4 census CSV, as first written by a census that
# ran the exact stack on every one of its 736 rows
DIM4_CSV_SHA256 = "a3538281c4d9c013e1f7e6834ed0253003a0ae1c0806c439f1fbaba5ad02ab28"


def test_enumerate_dim4_full(capsys, tmp_path):
    csv = tmp_path / "census.csv"
    code, out, _ = run(capsys, "enumerate", "--dim", "4", "--field", "gf:2",
                       "--verify", "--jobs", "4", "--out", str(csv))
    assert code == 0
    assert "16777216 candidates" in out
    assert "736 nilpotent" in out
    assert "[pass]" in out
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == DIM4_CSV_SHA256


def test_enumerate_rejects_rationals(capsys):
    code, _, err = run(capsys, "enumerate", "--dim", "3", "--field", "q")
    assert code == 2
    assert "finite prime field" in err


def test_enumerate_budget_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--dim", "5", "--field", "gf:2")
    assert code == 2
    assert "budget" in err


def test_filiform_emit(capsys):
    code, out, _ = run(capsys, "filiform", "7", "--emit")
    assert code == 0
    L = loads(out)
    assert L.dim == 10
    assert t_invariant(L) == 7


def test_filiform_summary(capsys):
    code, out, _ = run(capsys, "filiform", "3")
    assert code == 0
    assert "t = 3" in out and "class 5" in out


def test_console_entry_point():
    # python -m schurdefect.cli runs console_main, which exits with main's code
    env = dict(os.environ, PYTHONPATH=str(Path(schurdefect.__file__).parents[1]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "schurdefect.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    done = cli("t", "F7")
    assert (done.returncode, done.stdout, done.stderr) == (0, "7\n", "")
    done = cli("enumerate", "--dim", "5", "--field", "gf:2")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "t", "L9_99")[0] == 2
    assert run(capsys, "t", "--field", "gf:6", "L4_3")[0] == 2
    assert run(capsys, "t")[0] == 2
    assert run(capsys, "invariants", "L4_3", "--field", "zz")[0] == 2
    code, _, err = run(capsys, "classify", "L4_3", "--file", "x.json")
    assert code == 2


def test_file_with_bad_content(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "field": {"kind": "rational"}, "brackets": '
                    '[{"lhs": [2, 1], "rhs": {"1": "1"}}]}')
    code, _, err = run(capsys, "invariants", "--file", str(path))
    assert code == 2
    assert "brackets[0].lhs" in err


def test_file_with_duplicate_key(capsys, tmp_path):
    path = tmp_path / "twice.json"
    path.write_text('{"dim": 3, "dim": 4, "field": {"kind": "rational"}, '
                    '"brackets": [{"lhs": [1, 2], "rhs": {"3": "1"}}]}')
    code, out, err = run(capsys, "invariants", "--file", str(path))
    assert code == 2 and out == "" and "'dim'" in err


def test_dim_limit(capsys, tmp_path, monkeypatch):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": MAX_DIM + 1, "field": {"kind": "rational"},
                                "brackets": []}))
    code, _, err = run(capsys, "t", "--file", str(path))
    assert code == 2 and "dim: " in err
    for key in (f"A{MAX_DIM + 1}", f"H{MAX_DIM // 2}", f"F{MAX_DIM - 2}"):
        code, _, err = run(capsys, "t", key)
        assert code == 2 and f"{key}: dim {MAX_DIM + 1}" in err
    # an index of more digits than int() reads is refused before it is read
    code, out, err = run(capsys, "t", "F" + "1" * 5000)
    assert code == 2 and out == "" and "MAX_DIM" in err
    assert err.startswith("error: ") and err.count("\n") == 1
    code, _, err = run(capsys, "filiform", str(MAX_DIM - 2))
    assert code == 2 and "t: " in err
    assert run(capsys, "t", f"A{MAX_DIM}")[:2] == (0, "0\n")
    # the largest H and F pass the check; stubs stand in for the slow builds
    built = []
    small = catalog.filiform(QQ, 1)
    monkeypatch.setattr(catalog, "heisenberg", lambda f, m: built.append(m) or small)
    monkeypatch.setattr(catalog, "filiform", lambda f, t: built.append(t) or small)
    assert run(capsys, "t", f"H{(MAX_DIM - 1) // 2}")[0] == 0
    assert run(capsys, "t", f"F{MAX_DIM - 3}")[0] == 0
    assert run(capsys, "filiform", str(MAX_DIM - 3))[0] == 0
    assert built == [(MAX_DIM - 1) // 2, MAX_DIM - 3, MAX_DIM - 3]


def test_structure_constant_limit(capsys, tmp_path):
    path = tmp_path / "dense.json"
    over = central_document(MAX_BRACKETS + 1, width=2)
    path.write_text(json.dumps(over))
    code, out, err = run(capsys, "t", "--file", str(path))
    assert code == 2 and out == ""
    assert f"brackets[{len(over['brackets']) - 1}].rhs: {MAX_BRACKETS + 1} " in err
    path.write_text(json.dumps(central_document(MAX_BRACKETS, width=2)))
    assert run(capsys, "t", "--file", str(path))[0] == 0


def test_bracket_count_limit(capsys, tmp_path):
    path = tmp_path / "many.json"
    path.write_text(json.dumps(central_document(MAX_BRACKETS + 1)))
    code, out, err = run(capsys, "t", "--file", str(path))
    assert code == 2 and out == "" and "brackets: " in err
    path.write_text(json.dumps(central_document(MAX_BRACKETS)))
    assert run(capsys, "t", "--file", str(path))[0] == 0


def test_hostile_documents_exit_2_with_one_error_line(capsys, tmp_path):
    # deep nesting, numbers with more digits than int() converts, bytes that
    # are no UTF-8, an empty file and a directory: each is an input error,
    # exit 2 and one line on stderr, never a traceback; every text case is
    # a DocumentError from loads
    def bracket(field, key, scalar):
        return json.dumps({"dim": 3, "field": field,
                           "brackets": [{"lhs": [1, 2], "rhs": {key: scalar}}]})

    digits = "7" * 5000
    texts = {
        "arrays_1000": "[" * 1000 + "]" * 1000,
        "arrays_100000": "[" * 100_000 + "]" * 100_000,
        "objects_1000": '{"a": ' * 1000 + "0" + "}" * 1000,
        "objects_100000": '{"a": ' * 100_000 + "0" + "}" * 100_000,
        "dim_5000_digits": '{"dim": ' + digits + "}",
        "q_scalar_5000_digits": bracket({"kind": "rational"}, "3", digits),
        "gf3_scalar_5000_digits": bracket({"kind": "prime", "p": 3}, "3", "1" * 5000),
        "index_5000_digits": bracket({"kind": "rational"}, "1" * 5000, "1"),
        "index_not_ascii": bracket({"kind": "rational"}, "³", "1"),
        "empty": "",
    }
    for name, text in texts.items():
        with pytest.raises(DocumentError):
            loads(text)
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    # a repeated key keeps its own message, unwrapped
    with pytest.raises(DocumentError, match=r"^duplicate JSON key 'dim'$"):
        loads('{"dim": 3, "dim": 4}')
    (tmp_path / "not_utf8.json").write_bytes(b'{"name": "\xff\xfe"}')
    (tmp_path / "a_directory").mkdir()
    paths = sorted(tmp_path.iterdir())
    assert len(paths) == len(texts) + 2
    for path in paths:
        code, out, err = run(capsys, "t", "--file", str(path))
        assert code == 2 and out == "", path.name
        assert err.startswith("error: ") and err.count("\n") == 1, path.name


def test_long_outside_text_gives_one_short_error_line(capsys):
    # an unknown key, a malformed parameter, a parameter past int()'s digit
    # limit and a bad field spec, 5,000 characters each
    for argv in (("t", "H" + "0" * 5000), ("t", "L6_19", "--param", "x" * 5000),
                 ("t", "L6_19", "--param", "1" * 5000),
                 ("t", "L6_19", "--field", "gf:3", "--param", "9" * 4000),
                 ("t", "L4_3", "--field", "z" * 5000),
                 ("t", "L4_3", "--field", "gf:-" + "1" * 4000),
                 ("filiform", "1" * 4000),
                 ("enumerate", "--dim", "1" * 4000, "--field", "gf:3")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv[:2]
        assert err.startswith("error: ") and err.count("\n") == 1, argv[:2]
        assert len(err) < 200, err[:300]


def test_long_outside_text_gives_short_usage_errors(capsys):
    # argparse's own usage errors quote the argument: an int past int()'s
    # digit limit, an unknown subcommand, an unknown extra argument
    big = "1" * 5000
    for argv in (("filiform", big), ("x" * 3000,),
                 ("enumerate", "--dim", "3", "--field", "gf:3", "--jobs", big),
                 ("catalog", big)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv[:1]
        assert "error: argument" in err or "unrecognized" in err, err[:300]
        assert len(err.encode()) < 1024 and "Traceback" not in err, err[:300]
