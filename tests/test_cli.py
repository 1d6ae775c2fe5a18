import json
import math
from collections import Counter

import pytest

from aqgrec import dual, group
from aqgrec.aqg import reconstruct
from aqgrec.bundle import parse_bundle
from aqgrec.cli import run
from aqgrec.examples import _qint


def _gen(tmp_path, *argv):
    path = tmp_path / "bundle.json"
    assert run(["gen", *argv, "-o", str(path)]) == 0
    return path


def test_gen_then_check_pipeline(tmp_path, capsys):
    path = _gen(tmp_path, "s3")
    assert run(["check", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    names = [c["check"] for c in doc["checks"]]
    assert "modular-data" in names


def test_validate_and_reconstruct(tmp_path, capsys):
    path = _gen(tmp_path, "pointed", "--n", "3", "--t", "1")
    assert run(["validate", str(path)]) == 0
    capsys.readouterr()
    assert run(["reconstruct", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["labels"] == ["0", "1", "2"]


def test_dims_output(tmp_path, capsys):
    path = _gen(tmp_path, "suq2", "--q", "0.5", "--L", "3")
    assert run(["dims", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    dims = {r["label"]: r["quantum_dim"] for r in doc["labels"]}
    assert abs(dims["1"] - 2.5) < 1e-9
    assert abs(dims["3"] - 10.625) < 1e-9


def test_dual_and_group_commands(tmp_path, capsys):
    path = _gen(tmp_path, "q8")
    assert run(["dual", str(path)]) == 0
    capsys.readouterr()
    assert run(["group", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"]["order"] == 8
    assert doc["cocommutative"] is True


def test_each_command_builds_the_tables_once(tmp_path, monkeypatch):
    path = _gen(tmp_path, "d4")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # cli.grouplikes imports group.grouplikes when called, so wrapping the
    # library modules counts every call once
    for mod in (dual, group):
        for name in ("table_from_aqg", "dual_table", "grouplikes"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    out = str(tmp_path / "report.json")
    assert run(["group", str(path), "-o", out]) == 0
    assert calls == {"table_from_aqg": 1, "dual_table": 1, "grouplikes": 1}
    calls.clear()
    # A and its dual
    assert run(["dual", str(path), "-o", out]) == 0
    assert calls == {"table_from_aqg": 1, "dual_table": 1}


def test_group_seed_reaches_every_row(tmp_path):
    path = _gen(tmp_path, "q8")
    q = reconstruct(parse_bundle(path.read_text()))
    residuals = {seed: group.grouplikes(q, seed=seed)[3].max_residual for seed in (7, 42)}
    # the seeds give different residuals, so the row shows which one it saw
    assert residuals[7] != residuals[42]
    out = tmp_path / "report.json"
    assert run(["group", str(path), "--seed", "7", "-o", str(out)]) == 0
    rows = {c["check"]: c for c in json.loads(out.read_text())["checks"]}
    assert rows["intrinsic-group-valid"]["residual"] == residuals[7]


def test_rmatrix_command(tmp_path, capsys):
    path = _gen(tmp_path, "pointed", "--n", "2", "--t", "1")
    assert run(["rmatrix", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["triangular"] is True

    path3 = _gen(tmp_path, "pointed", "--n", "3", "--t", "1")
    capsys.readouterr()
    assert run(["rmatrix", str(path3)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["triangular"] is False


def test_exit_code_2_on_input_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["check", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["validate", str(bad)]) == 2
    # window bundles have no finite dual
    path = _gen(tmp_path, "suq2", "--L", "2")
    assert run(["dual", str(path)]) == 2
    assert run(["group", str(path)]) == 2


def _conj_without_r(doc):
    del doc["conj"]["1"]["r"]


def _at(at, data=None):
    """Give the first isometry the positions at, and the entries data."""
    def change(doc):
        m = doc["fusion"][0]["isometries"][0]
        m["at"] = at
        if data is not None:
            m["data"] = data
    return change


@pytest.mark.parametrize("malform", [
    lambda doc: doc["conj"].update({"1": [1]}),
    lambda doc: doc["conj"].update({"1": 1}),
    _conj_without_r,
    lambda doc: doc.update(conj=list(doc["conj"].values())),
    lambda doc: doc.update(dims=list(doc["dims"].values())),
    lambda doc: doc.update(dual=list(doc["dual"].values())),
    lambda doc: doc.update(labels=2),
    lambda doc: doc["fusion"][0].update(isometries=1),
    lambda doc: doc["braiding"][0].pop("c"),
    lambda doc: doc["fusion"][0]["isometries"][0]["data"][0].__setitem__(0, 10 ** 400),
    lambda doc: doc.update(closed="false"),
    lambda doc: doc.update(closed=1),
    lambda doc: doc.update(version=True),
    lambda doc: doc.update(version=1.0),
    lambda doc: doc["dims"].update({"1": True}),
    _at([0.0]),
    _at([True]),
    _at("0"),
    _at([10 ** 400]),
    _at([1]),
    _at([-1]),
    _at([0, 0], [[1.0, 0.0], [1.0, 0.0]]),
    _at([1, 0], [[1.0, 0.0], [1.0, 0.0]]),
    _at([0], []),
    _at([], [[1.0, 0.0]]),
    lambda doc: doc["fusion"][0]["isometries"][0].update(data=5),
    lambda doc: doc["fusion"][0]["isometries"][0].update(rows=10 ** 8, cols=10 ** 8, at=[],
                                                         data=[]),
    lambda doc: doc["fusion"][0]["isometries"][0].update(rows=-1, cols=-1),
], ids=["conj-list", "conj-int", "conj-no-r", "conj-as-list", "dims-as-list",
        "dual-as-list", "labels-int", "isometries-int", "braiding-no-c", "entry-10**400",
        "closed-string", "closed-int", "version-true", "version-float", "dim-true",
        "at-float", "at-bool", "at-string", "at-10**400", "at-past-the-end", "at-negative",
        "at-repeats", "at-decreases", "at-longer", "at-shorter", "data-int", "at-no-room",
        "shape-negative"])
def test_malformed_bundle_shapes_exit_2(tmp_path, capsys, malform):
    path = _gen(tmp_path, "pointed", "--n", "2", "--t", "1")
    doc = json.loads(path.read_text())
    first = doc["fusion"][0]
    malform(doc)
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err
    if isinstance(first["isometries"], list) and "at" in first["isometries"][0]:
        # a malformed "at" is reported at its location
        assert f'at fusion({first["i"]},{first["j"]}->{first["k"]})' in err, err


def _set_first_entry(obj, value):
    """Set the entry at flat position 0 of a matrix or vector object, dense
    or with its stored entries at "at"."""
    if "at" in obj and obj["at"][:1] != [0]:
        obj["at"].insert(0, 0)
        obj["data"].insert(0, value)
    else:
        obj["data"][0] = value


def _off_sector_isometry(doc):
    # row 0 of (1,1) -> 0 is e_1 (x) e_1, of weight 2, and e_0 has weight 0
    ent = next(e for e in doc["fusion"] if (e["i"], e["j"], e["k"]) == ("1", "1", "0"))
    _set_first_entry(ent["isometries"][0], [1e-3, 0.0])


def _off_sector_r(doc):
    _set_first_entry(doc["conj"]["1"]["r"], [1e-3, 0.0])


@pytest.mark.parametrize("change,message", [
    (_off_sector_isometry, "fusion(1,1->0): entry (0, 0) lies off its weight sector"),
    (_off_sector_r, "conj(1).r: entry 0 lies off its weight sector"),
    (lambda doc: doc["weights"].update({"2": [2, 0]}), "weights of '2': 2 entries"),
    (lambda doc: doc["weights"].update({"1": [1.5, -1]}), "weights of '1' must be"),
], ids=["isometry", "r", "length", "non-integer"])
def test_a_broken_grading_exits_2(tmp_path, capsys, change, message):
    # the grading is certified while parsing, before any report is written
    path = _gen(tmp_path, "suq2", "--q", "0.5", "--L", "3")
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    for op in ("validate", "check", "dims"):
        assert run([op, str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err, err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["suq2", "--q", "1.5"],
    ["suq2", "--q", "0"],
    ["suq2", "--q", "nan"],
    ["suq2", "--L", "0"],
    ["pointed", "--n", "0"],
])
def test_gen_exits_2_on_bad_arguments(tmp_path, capsys, argv):
    assert run(["gen", *argv, "-o", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("option", [
    ["--text"], ["--abs-tol", "1e-9"], ["--rel-tol", "1e-9"], ["--samples", "0"],
    ["--seed", "3"],
])
def test_gen_takes_only_the_output_option(tmp_path, capsys, option):
    # gen writes a bundle: a report option is an unknown argument, not one
    # that is ignored or validated
    out = tmp_path / "s3.json"
    with pytest.raises(SystemExit) as exc:
        run(["gen", "s3", "-o", str(out), *option])
    assert exc.value.code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert run(["gen", "s3", "--output", str(out)]) == 0 and out.exists()
    with pytest.raises(SystemExit):
        run(["gen", "--help"])
    usage = capsys.readouterr().out
    assert "--output" in usage and option[0] not in usage


_REFUSALS = (("dual", "Hopf tables require a closed bundle"),
             ("group", "intrinsic group requires a closed bundle"),
             ("rmatrix", "the bundle has no braiding"))


def test_inapplicable_commands_exit_2_before_validating(tmp_path, capsys, monkeypatch):
    # a window with one isometry scaled by 1 + 1e-4 fails validation (check
    # exits 1), yet dual and group on a window, and rmatrix without a
    # braiding, are refused from the bundle document, with no reconstruction
    path = _gen(tmp_path, "suq2", "--q", "0.5", "--L", "3")
    doc = json.loads(path.read_text())
    data = doc["fusion"][-1]["isometries"][0]["data"]
    k = max(range(len(data)), key=lambda t: math.hypot(*data[t]))
    data[k] = [x * (1 + 1e-4) for x in data[k]]
    path.write_text(json.dumps(doc))
    assert run(["check", str(path)]) == 1
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("reconstructed a bundle the command refuses")

    monkeypatch.setattr("aqgrec.aqg.reconstruct", refuse)
    for op, message in _REFUSALS:
        assert run([op, str(path)]) == 2, op
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", err


def test_refusals_load_no_numpy(tmp_path):
    """Each refusal is decided from the bundle document, before numpy loads,
    with its message byte for byte, also on a window whose matrix entry is
    malformed."""
    import os
    import subprocess
    import sys

    import aqgrec

    path = _gen(tmp_path, "suq2", "--q", "0.5", "--L", "3")
    bad = tmp_path / "bad.json"
    doc = json.loads(path.read_text())
    doc["fusion"][-1]["isometries"][0]["data"][0] = "ab"
    bad.write_text(json.dumps(doc))
    assert run(["validate", str(bad)]) == 2
    code = (
        "import sys\n"
        "from aqgrec.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(aqgrec.__file__))
    for window in (path, bad):
        for op, message in _REFUSALS:
            res = subprocess.run([sys.executable, "-c", code, op, str(window)],
                                 capture_output=True, text=True,
                                 env=dict(os.environ, PYTHONPATH=src))
            assert res.stdout.split() == ["2", "False"], (op, res.stdout, res.stderr)
            assert res.stderr == f"error: {message}\n", (op, res.stderr)


def test_memory_error_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch):
    path = _gen(tmp_path, "pointed", "--n", "3", "--t", "1")
    message = ("Unable to allocate 78.7 MiB for an array with shape (5157713,) and data "
               "type complex128")

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("aqgrec.cli.validate_bundle", exhausted)
    capsys.readouterr()
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n", err


@pytest.mark.parametrize("argv", [
    ["--abs-tol", "nan"],
    ["--rel-tol", "-1"],
    ["--samples", "0"],
    ["--samples", "-3"],
])
def test_check_exits_2_on_bad_tolerance_or_samples(tmp_path, capsys, argv):
    path = _gen(tmp_path, "d4")
    capsys.readouterr()
    assert run(["check", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_exit_code_1_on_corrupted_bundle(tmp_path, capsys):
    path = _gen(tmp_path, "zn", "--n", "3")
    doc = json.loads(path.read_text())
    doc["fusion"][0]["isometries"][0]["data"][0][0] += 1e-3
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    assert run(["check", str(path)]) == 1


def test_text_mode(tmp_path, capsys):
    path = _gen(tmp_path, "zn", "--n", "2")
    assert run(["check", str(path), "--text"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out.lower()
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_reports_are_deterministic(tmp_path):
    path = _gen(tmp_path, "d4")
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["check", str(path), "-o", str(o1)]) == 0
    assert run(["check", str(path), "-o", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    # regenerating the bundle is also byte-identical
    path2 = _gen(tmp_path, "d4")
    assert path.read_bytes() == path2.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "aqgrec" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_numpy(flag):
    import os
    import subprocess
    import sys

    import aqgrec

    code = (
        "import sys\n"
        "from aqgrec.cli import run\n"
        "try:\n"
        f"    run([{flag!r}])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(aqgrec.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.splitlines()[-1] == "False", out


def test_check_exits_2_on_nan_entry(tmp_path, capsys):
    path = _gen(tmp_path, "pointed", "--n", "3", "--t", "1")
    doc = json.loads(path.read_text())
    doc["fusion"][0]["isometries"][0]["data"][0][0] = float("nan")
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    capsys.readouterr()
    assert run(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err


def test_rmatrix_exits_2_without_braiding(tmp_path, capsys):
    path = _gen(tmp_path, "suq2", "--q", "0.5", "--L", "3")
    capsys.readouterr()
    assert run(["rmatrix", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no braiding" in err
    assert "Traceback" not in err


def test_validate_and_check_do_not_import_numpy_ma(tmp_path):
    """np.unique imports numpy.ma on first use (12-16 ms a process); no
    subcommand that reconstructs should pay for it."""
    import os
    import subprocess
    import sys

    import aqgrec

    path = _gen(tmp_path, "pointed", "--n", "4", "--t", "1")
    code = (
        "import sys\n"
        "from aqgrec.cli import run\n"
        f"codes = [run([op, {str(path)!r}, '-o', {str(tmp_path / 'out.json')!r}])"
        " for op in ('validate', 'check')]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(aqgrec.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == ["[0,", "0]", "False"], out


_LOADS = (
    "import json, sys\n"
    "from aqgrec.cli import run\n"
    "try:\n"
    "    code = run(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('aqgrec.'))]))\n"
)


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    """The package root imports nothing, and each subcommand imports the
    modules it runs: a refusal, decided from the bundle document, loads
    only the document module and the exceptions."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import aqgrec

    closed, window, out = (str(tmp_path / n) for n in ("z3.json", "w.json", "out.json"))
    assert run(["gen", "pointed", "--n", "3", "--t", "1", "-o", closed]) == 0
    assert run(["gen", "suq2", "--L", "2", "-o", window]) == 0
    src = os.path.dirname(os.path.dirname(aqgrec.__file__))
    modules = {f.stem for f in Path(aqgrec.__file__).parent.glob("*.py")} - {"__init__", "cli"}
    cases = [
        (["--version"], 0, modules),
        (["validate", closed, "-o", out], 0, {"aqg", "braid", "dual", "group", "examples"}),
        (["check", closed, "-o", out], 0, {"braid", "dual", "group", "examples"}),
        (["dims", closed, "-o", out], 0, {"braid", "dual", "group", "examples"}),
        (["gen", "s3", "-o", out], 0, {"aqg", "braid", "dual", "group"}),
        (["dual", window], 2, modules - {"document", "errors"}),
        (["group", window], 2, modules - {"document", "errors"}),
        (["rmatrix", window], 2, modules - {"document", "errors"}),
    ]
    for argv, want, unused in cases:
        res = subprocess.run([sys.executable, "-c", _LOADS, *argv], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src))
        code, loaded = json.loads(res.stdout.splitlines()[-1])
        assert code == want, (argv, res.stderr)
        assert not {f"aqgrec.{m}" for m in unused} & set(loaded), (argv, loaded)
        assert "aqgrec.cli" in loaded and "Traceback" not in res.stderr, argv


def test_ill_conditioned_f_exits_2(tmp_path, capsys):
    # J*J of label n has condition number q^-2n.  At q = 0.1, L = 5 that is
    # 1e10: F = Rbar Rbar* needs no inverse, so check and dims pass
    path = _gen(tmp_path, "suq2", "--q", "0.1", "--L", "5")
    for op in ("check", "dims"):
        capsys.readouterr()
        assert run([op, str(path)]) == 0
    dims = json.loads(capsys.readouterr().out)["labels"]
    for r in dims:
        want = _qint(int(r["label"]) + 1, 0.1)
        assert abs(r["quantum_dim"] - want) <= 1e-12 * want, r
    # at L = 8 it is 1e16, and cond * eps >= 1: past double precision
    path = _gen(tmp_path, "suq2", "--q", "0.1", "--L", "8")
    assert run(["validate", str(path), "-o", str(tmp_path / "v.json")]) == 0
    for op in ("check", "dims"):
        capsys.readouterr()
        assert run([op, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "condition number" in err, err
        assert "label 8" in err and "Traceback" not in err, err
