"""Command line driver: artifacts, provenance, reproducibility, errors."""

import argparse
import os
import py_compile
import runpy
import subprocess
import sys
import types
from collections import Counter

import numpy as np
import pytest

from blocklanczos import (Diagnostics, Operator, householder_qr, run_block_lanczos,
                          spectrum_to_matrix, sym_eig)
from blocklanczos import cli, lanczos
from blocklanczos.cli import (OPTIONS, READS, _fmt, _write_csv, build_parser, build_problem,
                              main, resolve_config)

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def read(path):
    with open(path) as fh:
        return fh.read()


def csv_parts(text):
    comments = [l for l in text.splitlines() if l.startswith("#")]
    body = [l for l in text.splitlines() if not l.startswith("#")]
    return comments, body[0].split(","), body[1:]


def write_mtx(path, a):
    """Write the symmetric ``a`` as a Matrix Market array file."""
    n = a.shape[0]
    lines = ["%%MatrixMarket matrix array real symmetric", "%d %d" % (n, n)]
    lines.extend("%.17g" % a[i, j] for j in range(n) for i in range(j, n))
    path.write_text("\n".join(lines) + "\n")
    return path


def config_keys(path):
    """The keys of a CSV's '# config:' line."""
    line = next(l for l in read(path).splitlines() if l.startswith("# config: "))
    return [field.split("=", 1)[0] for field in line.removeprefix("# config: ").split(" ")]


def test_fp_diagnostics_artifacts(tmp_path, capsys):
    rc = main([
        "fp-diagnostics", "--matrix", "strakos48(0.1,100)", "--k", "8",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == 2
    csv = tmp_path / "fp_diagnostics.csv"
    script = tmp_path / "fp_diagnostics_plot.py"
    assert csv.exists() and script.exists()
    comments, header, rows = csv_parts(read(csv))
    assert comments[0].startswith("# experiment=fp-diagnostics version=")
    assert "seed=1" in comments[0]
    assert comments[1].startswith("# config: ")
    assert any("np_eps" in c for c in comments)
    assert header == ["j", "delta_v_norm", "normality", "local_orth",
                     "beta_norm", "global_orth"]
    assert len(rows) == 8
    assert rows[0].split(",")[0] == "1"
    py_compile.compile(str(script), doraise=True)


def test_fp_diagnostics_rows_are_the_run_columns(tmp_path):
    # every CSV cell is the run's Diagnostics entry bit for bit (%.17g round-trips)
    argv = ["fp-diagnostics", "--matrix", "strakos(40,0.1,100)", "--p", "3", "--k", "9",
            "--seed", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    _, header, rows = csv_parts(read(tmp_path / "fp_diagnostics.csv"))
    cfg = resolve_config(build_parser().parse_args(argv))
    rng = np.random.default_rng(cfg["seed"])
    problem = build_problem(cfg, rng)
    v, _ = householder_qr(rng.standard_normal((40, 3)))
    run = run_block_lanczos(Operator(problem.a, problem.eigs), v, k_max=9)
    table = np.array([[float(cell) for cell in row.split(",")] for row in rows]).T
    assert header == ["j"] + list(Diagnostics._fields)
    assert np.array_equal(table[0], np.arange(1, run.n_steps + 1))
    for got, want in zip(table[1:], run.diagnostics, strict=True):
        assert np.array_equal(got, want)


def test_same_config_reproduces_bytes(tmp_path):
    args = [
        "fp-diagnostics", "--matrix", "strakos(16,0.5,4)", "--p", "2",
        "--k", "5", "--seed", "3", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    first = read(tmp_path / "fp_diagnostics.csv")
    assert main(args) == 0
    assert read(tmp_path / "fp_diagnostics.csv") == first


def test_config_file_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "k = 5\n"
        "seed = 9\n"
        "omega = 1e-3\n"
        "psi = 1e-3\n"
    )
    rc = main([
        "fp-diagnostics", "--config", str(cfgfile),
        "--matrix", "strakos(16,0.5,4)", "--k", "7", "--out", str(tmp_path),
    ])
    assert rc == 0
    comments, _, rows = csv_parts(read(tmp_path / "fp_diagnostics.csv"))
    # the flag wins over the file, the file over the default
    assert "seed=9" in comments[0]
    assert "k=7" in comments[1]
    assert "omega=0.001" in comments[1]
    # psi is a continuation key: fp-diagnostics skips it
    assert "psi" not in comments[1]
    assert len(rows) == 7


def test_error_exits(tmp_path, capsys):
    bad = [
        # unknown config key
        None,
        ["fp-diagnostics", "--out", str(tmp_path)],  # neither matrix nor mtx
        ["fp-diagnostics", "--matrix", "strakos48(0.1,100)",
         "--mtx", "x.mtx", "--out", str(tmp_path)],  # both
        ["fp-diagnostics", "--matrix", "mystery(4)", "--out", str(tmp_path)],
        ["fp-diagnostics", "--matrix", "random(12)_kron", "--out", str(tmp_path)],
        ["blurred-cg", "--matrix", "strakos(16,0.5,4)", "--delta", "1,2,3",
         "--out", str(tmp_path)],
        ["fp-diagnostics", "--mtx", str(tmp_path / "missing.mtx"),
         "--out", str(tmp_path)],
        ["fp-diagnostics", "--mtx", os.path.join(DATA, "coord_sym_nonsquare.mtx"),
         "--out", str(tmp_path)],
    ]
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("verbosity = 3\n")
    bad[0] = ["fp-diagnostics", "--config", str(cfgfile),
              "--matrix", "strakos48(0.1,100)", "--out", str(tmp_path)]
    for args in bad:
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")


# a non-default value for every option, as it is written on the command line;
# an option missing here fails its case below with a KeyError
OPTION_VALUES = {
    "matrix": "random(10)", "mtx": "operator.mtx", "name": "study", "p": "3", "k": "7",
    "mu": "1e-5", "psi": "1e-3", "eta": "2e-3", "delta": "5,1",
    "delta_scale": "abs", "m": "4", "seed": "9", "maxit": "12", "omega": "1e-9",
    "out": "elsewhere",
}


@pytest.mark.parametrize("key", sorted(OPTIONS))
def test_flag_and_config_line_resolve_alike(tmp_path, key):
    default, kind, _ = OPTIONS[key]
    text = OPTION_VALUES[key]
    # exactly one of --matrix and --mtx is required
    base = [] if key in ("matrix", "mtx") else ["--matrix", "random(10)"]
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("%s = %s\n" % (key.replace("_", "-"), text))
    flag = "--" + key.replace("_", "-")
    commands = [command for command, keys in READS.items() if key in keys]
    assert commands
    for command in commands:
        from_flag = resolve_config(build_parser().parse_args([command, flag, text] + base))
        from_file = resolve_config(build_parser().parse_args(
            [command, "--config", str(cfgfile)] + base))
        assert from_flag == from_file
        assert sorted(from_flag) == sorted(READS[command])
        assert type(from_flag[key]) is kind
        assert from_flag[key] == kind(text) != default


def test_each_command_takes_only_the_flags_it_reads():
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(READS) == list(cli._COMMANDS)
    assert set().union(*READS.values()) == set(OPTIONS)  # every option is read somewhere
    flags = {name: {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
             for name, parser in sub.choices.items()}
    for name, keys in READS.items():
        assert flags[name] == {"--config"} | {"--" + key.replace("_", "-") for key in keys}
    # 11 + 8 + 11 + 8 option flags; each command took all 15 before
    assert sum(len(f - {"--config"}) for f in flags.values()) == 38


@pytest.mark.parametrize("argv", [
    ["blurred-cg", "--k", "3"],
    ["fp-diagnostics", "--mu", "1e-3"],
    ["fp-diagnostics", "--mu", "1e-3", "--m", "7", "--delta", "1e9", "--psi", "5", "--maxit", "3"],
    ["fp-diagnostics", "--delta", "abc"],
    ["interlacing", "--eta", "-1e-3"],
])
def test_flag_of_another_command_exits(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--matrix", "random(10)", "--out", str(out)])
    assert info.value.code == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_config_keys_of_another_command_are_skipped(tmp_path):
    # neither converted, checked nor echoed; an unknown key still fails (test_error_exits)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("m = two\ndelta = abc\nmu = -1\nk = 4\n")
    assert main(["fp-diagnostics", "--config", str(cfgfile), "--matrix", "random(10)",
                 "--out", str(tmp_path)]) == 0
    assert config_keys(tmp_path / "fp_diagnostics.csv") == [
        "k", "matrix", "name", "omega", "out", "p", "seed"]


@pytest.mark.parametrize("source", ["matrix", "mtx"])
def test_one_config_file_drives_every_command(tmp_path, capsys, source):
    # every key but the other of --matrix and --mtx, which exclude each other
    mtx = write_mtx(tmp_path / "operator.mtx",
                    spectrum_to_matrix(np.linspace(0.1, 100.0, 40), 3)[0])
    values = dict(OPTION_VALUES, matrix="strakos(40,0.1,100)", mtx=str(mtx), k="8",
                  delta="100,0.5", delta_scale="eps_norm", m="3", maxit="60",
                  out=str(tmp_path / "out"))
    del values["mtx" if source == "matrix" else "matrix"]
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join("%s = %s\n" % item for item in values.items()))
    for command, keys in READS.items():
        assert main([command, "--config", str(cfgfile)]) == 0
        wrote = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines()]
        csvs = [path for path in wrote if path.endswith(".csv")]
        assert csvs, command
        for path in csvs:  # the other of matrix and mtx stays None, which is not echoed
            assert config_keys(path) == sorted(set(keys) - {"mtx", "matrix"} | {source}), path


@pytest.mark.parametrize("name", ["study\nj,x", "study\x0cj,x", "study\r", "\u2028"])
def test_text_option_with_a_line_break_exits(tmp_path, capsys, name):
    # a break would start a header line the CSV readers take for the column header
    out = tmp_path / "out"
    assert main(["fp-diagnostics", "--matrix", "random(10)", "--name", name,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --name holds whitespace: %r\n" % name
    assert not out.exists()


@pytest.mark.parametrize("blank", [" ", "\t"])
@pytest.mark.parametrize("option", ["name", "matrix", "out"])
def test_text_option_with_whitespace_exits(tmp_path, capsys, option, blank):
    # the plot scripts read header fields back by splitting on whitespace
    given = {"name": "my study", "matrix": "strakos(12, 0.1, 100)",
             "out": str(tmp_path / "my out")}[option].replace(" ", blank)
    values = {"name": "study", "matrix": "random(10)", "out": str(tmp_path / "out"), option: given}
    argv = ["fp-diagnostics", "--k", "3"] + ["--%s=%s" % item for item in values.items()]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --%s holds whitespace: %r\n" % (option, given)
    assert list(tmp_path.iterdir()) == []


def test_negative_exponent_value_resolves_like_the_joined_form():
    base = ["continuation", "--matrix", "strakos48(0.1,100)_kron"]
    spaced = resolve_config(build_parser().parse_args(base + ["--omega", "-1e-12"]))
    joined = resolve_config(build_parser().parse_args(base + ["--omega=-1e-12"]))
    assert spaced == joined and spaced["omega"] == -1e-12


def test_two_runs_build_the_parser_once(tmp_path, monkeypatch):
    built = Counter()
    real = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        built["parsers"] += 1
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli.build_parser.cache_clear()
    for seed in ("1", "2"):
        assert main(["fp-diagnostics", "--matrix", "strakos(16,0.5,4)", "--k", "3",
                     "--seed", seed, "--out", str(tmp_path)]) == 0
    assert built["parsers"] == 1


def test_config_value_of_the_wrong_type_names_its_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("matrix = random(10)\np = two\n")
    out = tmp_path / "out"
    assert main(["fp-diagnostics", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config line 2: p = 'two'")
    assert not out.exists()


def test_config_line_that_is_not_key_value_names_its_line(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("matrix = random(10)\n\np  # no value\n")
    out = tmp_path / "out"
    assert main(["fp-diagnostics", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config line 3 is not key=value: 'p  # no value'\n")
    assert not out.exists()


def test_delta_scale_is_checked_alike_as_flag_and_file_line(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("delta-scale = bogus\n")
    base = ["blurred-cg", "--matrix", "random(10)", "--out", str(tmp_path / "out")]
    errors = []
    for extra in (["--delta-scale", "bogus"], ["--config", str(cfgfile)]):
        assert main(base + extra) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: --delta-scale must be eps_norm or abs\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, low", [("p", 0, 1), ("p", -1, 1), ("k", 0, 1),
                                             ("m", 0, 1), ("maxit", -3, 0), ("seed", -2, 0)])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_integer_option_below_its_minimum_exits(tmp_path, capsys, key, value, low, source):
    # on the first command that reads the key: blurred-cg, or fp-diagnostics for k
    command = next(command for command, keys in READS.items() if key in keys)
    extra = ["--" + key, str(value)]
    if source == "config":
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("%s = %d\n" % (key, value))
        extra = ["--config", str(cfgfile)]
    out = tmp_path / "out"
    assert main([command, "--matrix", "random(10)", "--out", str(out)] + extra) == 2
    assert capsys.readouterr().err == "error: --%s must be >= %d, got %d\n" % (key, low, value)
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("continuation", "mu", "abc", "--mu takes a number or 'auto', got 'abc'"),
    ("continuation", "mu", "1e-5x", "--mu takes a number or 'auto', got '1e-5x'"),
    ("continuation", "mu", "-1", "--mu: mu must be > 0, got '-1'"),
    ("continuation", "mu", "0", "--mu: mu must be > 0, got '0'"),
    ("continuation", "mu", "nan", "--mu: mu must be > 0, got 'nan'"),
    ("continuation", "mu", "inf", "--mu: mu must be finite, got 'inf'"),
    ("blurred-cg", "delta", "abc", "--delta takes numbers, got 'abc'"),
    ("blurred-cg", "delta", "100,abc", "--delta takes numbers, got '100,abc'"),
    ("blurred-cg", "delta", "1,2,3", "--delta takes one or two comma-separated values"),
    ("continuation", "psi", "-1", "--psi must be >= 0, got -1.0"),
    ("continuation", "psi", "nan", "--psi must be >= 0, got nan"),
    ("continuation", "eta", "-0.001", "--eta must be >= 0, got -0.001"),
    ("continuation", "eta", "nan", "--eta must be >= 0, got nan"),
    # a negative value with an exponent is read as the value, not as a flag
    ("continuation", "eta", "-1e-3", "--eta must be >= 0, got -0.001"),
    ("continuation", "psi", "-1e-3", "--psi must be >= 0, got -0.001"),
    ("continuation", "mu", "-1e-5", "--mu: mu must be > 0, got '-1e-5'"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_number_option_that_is_not_a_number_exits(tmp_path, capsys, command, key, value,
                                                  message, source):
    # checked with the config, before any problem is built or run
    extra = ["--" + key, value]
    if source == "config":
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("%s = %s\n" % (key, value))
        extra = ["--config", str(cfgfile)]
    out = tmp_path / "out"
    assert main([command, "--matrix", "random(10)", "--out", str(out)] + extra) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("command", ["fp-diagnostics", "continuation", "interlacing"])
def test_steps_past_the_dimension_exit(tmp_path, capsys, command):
    # one --k rule for every Lanczos command: 9 steps of width 2 do not fit in n = 16
    out = tmp_path / "out"
    assert main([command, "--matrix", "strakos(16,0.5,4)", "--p", "2", "--k", "9",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need 1 <= k_max and k_max * p <= n\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["fp-diagnostics", "--mtx", "missing.mtx"], "No such file"),
    (["fp-diagnostics", "--mtx", os.path.join(DATA, "no_size_line.mtx")], "size line"),
    (["continuation", "--matrix", "strakos48(0.1,100)", "--mu", "1e300"], "no Ritz pair"),
    (["blurred-cg", "--matrix", "strakos(600,0.1,100)", "--m", "3"], "smallest spectral gap"),
])
def test_failed_command_leaves_no_directory(tmp_path, capsys, argv, message):
    # the directory is made by the first file written, so a failure leaves none
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["strakos(16.7,0.1,100)", "random(16.7)",
                                  "strakos(inf,0.1,100)", "random(nan)", "random(-3)",
                                  "random(0)", "strakos(0,0.1,100)"])
def test_non_integer_size_exits(tmp_path, capsys, spec):
    # rejected when the problem is built, naming the spec, before the output directory is made
    out = tmp_path / "out"
    assert main(["fp-diagnostics", "--matrix", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: matrix size must be a whole number >= 1 in %r\n" % spec)
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("random", "bad matrix spec 'random'"),
    ("random(12", "bad matrix spec 'random(12'"),
    ("random(twelve)", "bad matrix spec 'random(twelve)'"),
    ("strakos48(0.1)", "strakos48 takes (lambda_1, lambda_n[, rho])"),
    ("strakos48(0.1,100,0.8,1)_kron", "strakos48 takes (lambda_1, lambda_n[, rho])"),
    ("strakos(16,0.1)", "strakos takes (n, lambda_1, lambda_n[, rho])"),
    ("strakos()", "strakos takes (n, lambda_1, lambda_n[, rho])"),
])
def test_malformed_matrix_spec_exits_naming_its_rule(tmp_path, capsys, spec, message):
    out = tmp_path / "out"
    assert main(["fp-diagnostics", "--matrix", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("flag, word", [("--psi", "psi"), ("--eta", "eta"),
                                        ("--mu", "mu must be")])
def test_nan_threshold_exits(tmp_path, capsys, flag, word):
    # a NaN compares False both ways, so a "<= 0" guard would let it through
    assert main(["continuation", "--matrix", "strakos48(0.1,100)", "--p", "2", "--k", "12",
                 "--mu", "1e-5", flag, "nan", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err
    assert not os.listdir(tmp_path)


def test_nan_blur_width_exits(tmp_path, capsys):
    assert main(["blurred-cg", "--matrix", "strakos(12,0.5,4)", "--m", "3", "--delta", "nan",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "delta" in err
    assert not os.listdir(tmp_path)


def test_blur_wider_than_a_gap_exits_before_any_cg(tmp_path, capsys, monkeypatch):
    # strakos(600,...) ties its lowest eigenvalues, so any blur overlaps;
    # the blurred problems are built before the FP solves and none runs
    calls = []
    monkeypatch.setattr("blocklanczos.cli.hs_bcg", lambda *args, **kw: calls.append(args))
    assert main(["blurred-cg", "--matrix", "strakos(600,0.1,100)", "--p", "2", "--m", "3",
                 "--out", str(tmp_path)]) == 2
    assert "smallest spectral gap 0.000e+00" in capsys.readouterr().err
    assert calls == []
    assert not os.listdir(tmp_path)


def test_each_command_factors_its_operator_once(tmp_path, monkeypatch):
    # counts the dense eigen and Cholesky work on the n x n operator: a
    # generator problem brings its spectrum, so no command eigensolves A
    n = 30
    mtx = write_mtx(tmp_path / "operator.mtx", spectrum_to_matrix(np.linspace(1.0, 10.0, n), 7)[0])
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(x, *args, **kwargs):
            calls[name] += np.shape(x) == (n, n)
            return fn(x, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "eigvalsh")
    counted(np.linalg, "eigh")
    counted(np.linalg, "cholesky")
    assert main(["blurred-cg", "--mtx", str(mtx), "--p", "2", "--m", "3",
                 "--out", str(tmp_path / "cg_mtx")]) == 0
    # the eigenpairs the blur needs also give the norm
    assert calls == Counter(eigh=1, eigvalsh=0, cholesky=1)
    generator = "strakos(%d,0.1,100)" % n
    for argv, cholesky in [
        (["blurred-cg", "--matrix", generator, "--p", "2", "--m", "3"], 1),
        (["fp-diagnostics", "--matrix", generator, "--k", "10"], 0),
        (["continuation", "--matrix", generator, "--k", "10", "--mu", "1e-5"], 0),
        (["interlacing", "--matrix", generator, "--p", "2", "--k", "10"], 0),
    ]:
        calls.clear()
        assert main(argv + ["--out", str(tmp_path / argv[0])]) == 0
        assert calls["eigvalsh"] == 0 and calls["cholesky"] == cholesky, argv
        assert calls["eigh"] == 0, argv  # T_k and T_N stay below n x n here


def test_prefix_scans_solve_views_of_run_t(tmp_path, monkeypatch):
    # every prefix's T_k that ritz_analysis solves is a view of the run's
    # one dense T_K, never a copy; a command that asks for no Ritz data
    # solves none
    runs, solved = [], []

    def recorded_run(*args, **kwargs):
        runs.append(run_block_lanczos(*args, **kwargs))
        return runs[-1]

    def recorded_eig(t):
        solved.append(t)
        return sym_eig(t)

    monkeypatch.setattr(cli, "run_block_lanczos", recorded_run)
    monkeypatch.setattr(lanczos, "sym_eig", recorded_eig)
    generator = "strakos(60,0.1,100)"
    for argv, count in [
        (["continuation", "--matrix", generator, "--k", "20", "--mu", "1e-5"], 20),
        (["interlacing", "--matrix", generator, "--p", "2", "--k", "20"], 20),
        (["fp-diagnostics", "--matrix", generator, "--k", "20"], 0),
        (["blurred-cg", "--matrix", generator, "--p", "2", "--m", "3"], 0),
    ]:
        runs.clear(), solved.clear()
        assert main(argv + ["--out", str(tmp_path / argv[0])]) == 0
        # one solve per prefix k, of the leading (2k, 2k) corner
        assert sorted(t.shape for t in solved) == [(2 * k, 2 * k) for k in range(1, count + 1)]
        assert all(t.base is not None and np.shares_memory(t, runs[-1].t) for t in solved)


def test_csv_rows_format_each_cell_by_its_type(tmp_path):
    nan, inf = float("nan"), float("inf")
    rows = [
        (True, np.bool_(False), 3, np.int64(-7), 0.1, np.float64(2.5), "a;b"),
        (False, np.bool_(True), 2.75, np.int64(0), nan, -inf, "x"),  # int then float
        (1, np.True_, -0.0, np.intp(12), inf, np.float64(-0.0), "0.5"),
        (np.int64(5), 0, 3, 1e300, np.float32(0.25), 7, ""),
    ]
    path = _write_csv(tmp_path / "t.csv", {"name": "t", "seed": 0}, [], tuple("abcdefg"), rows)
    body = read(path).splitlines()[3:]
    assert body == [",".join(_fmt(x) for x in row) for row in rows]
    assert body[1].split(",")[2] == "2.75"  # not cut to the first row's %d
    assert [_fmt(x) for x in rows[0]] == ["1", "0", "3", "-7", "0.10000000000000001", "2.5",
                                          "a;b"]
    assert [_fmt(x) for x in rows[1][4:6] + rows[2][2:3]] == ["nan", "-inf", "-0"]


def test_generator_spectrum_scales_every_bound(tmp_path):
    # norm(A) is the generator's lambda_n exactly, not the largest
    # eigenvalue an eigensolver finds for the formed matrix (which differs
    # from 100 in its last bits for this seed)
    matrix = "strakos(120,0.1,100)"
    assert main(["fp-diagnostics", "--matrix", matrix, "--k", "10",
                 "--out", str(tmp_path / "fp")]) == 0
    comments, _, _ = csv_parts(read(tmp_path / "fp" / "fp_diagnostics.csv"))
    assert any(c.split()[-1] == "a_norm=100" for c in comments)
    assert main(["continuation", "--matrix", matrix, "--k", "30", "--mu", "1e-5",
                 "--out", str(tmp_path / "cont")]) == 0
    for name in ("continuation_terms.csv", "continuation_spread.csv"):
        comments, _, _ = csv_parts(read(tmp_path / "cont" / name))
        info = next(c for c in comments if "threshold=" in c)
        assert float(info.split("threshold=")[1].split()[0]) == 1e-5 * 100


@pytest.mark.parametrize("argv", [
    ["continuation", "--matrix", "strakos48(0.1,100)", "--p", "2", "--k", "12", "--mu", "1e-5"],
    ["interlacing", "--matrix", "strakos48(0.1,100)", "--p", "2", "--k", "12"],
    ["fp-diagnostics", "--matrix", "strakos48(0.1,100)", "--k", "8"],
    ["blurred-cg", "--matrix", "strakos(12,0.5,4)", "--p", "2", "--m", "3"],
])
def test_lanczos_commands_stay_on_numpy_lapack(argv, tmp_path):
    # every factorization is numpy's: a fresh interpreter that runs the
    # command end to end never loads a scipy module
    script = ("import sys\nfrom blocklanczos.cli import main\nassert main(sys.argv[1:]) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script] + argv + ["--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_blurred_cg_small_problem(tmp_path):
    rc = main([
        "blurred-cg", "--matrix", "strakos(12,0.5,4)", "--p", "2",
        "--m", "3", "--delta", "5,0.5", "--seed", "2", "--out", str(tmp_path),
    ])
    assert rc == 0
    comments, header, rows = csv_parts(read(tmp_path / "blurred_cg.csv"))
    assert header == ["iteration", "trace_error", "series"]
    labels = {r.split(",")[2] for r in rows}
    assert labels == {"hs_fp", "dr_fp", "dr_exact_d1", "dr_exact_d2"}
    assert any(c.startswith("# first_below_1e-12:") for c in comments)
    assert any("delta_raw=5" in c for c in comments)
    # every series starts at trace error one
    for label in labels:
        first = next(r for r in rows if r.split(",")[2] == label)
        assert first.split(",")[0] == "0" and float(first.split(",")[1]) == 1.0
    py_compile.compile(str(tmp_path / "blurred_cg_plot.py"), doraise=True)


def test_blurred_cg_degenerate_blur(tmp_path):
    rc = main([
        "blurred-cg", "--matrix", "strakos(12,0.5,4)", "--p", "2",
        "--m", "1", "--delta", "0", "--delta-scale", "abs",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    _, _, rows = csv_parts(read(tmp_path / "blurred_cg.csv"))
    labels = {r.split(",")[2] for r in rows}
    # m=1 with zero width means the exact series runs on the plain
    # diagonalized problem
    assert "dr_exact_d1" in labels and "dr_exact_d2" not in labels


def test_continuation_artifacts(tmp_path):
    rc = main([
        "continuation", "--matrix", "strakos48(0.1,100)", "--p", "2",
        "--k", "12", "--mu", "1e-5", "--out", str(tmp_path),
    ])
    assert rc == 0
    names = [
        "continuation_h_norms.csv", "continuation_terms.csv",
        "continuation_tn.csv", "continuation_spread.csv",
        "continuation_clusters.csv", "continuation_h_norms_plot.py",
        "continuation_terms_plot.py", "continuation_spread_plot.py",
    ]
    for name in names:
        assert (tmp_path / name).exists(), name
        if name.endswith(".py"):
            py_compile.compile(str(tmp_path / name), doraise=True)

    comments, header, rows = csv_parts(read(tmp_path / "continuation_h_norms.csv"))
    assert header == ["j", "width", "h_norm"]
    steps = next(c for c in comments if "continuation_steps=" in c)
    n_steps = int(steps.split("continuation_steps=")[1].split()[0])
    assert len(rows) == n_steps
    # the cut applied is the breakdown level, 1e-12 norm(A) with norm(A) = 100
    assert float(steps.split("rank_cut=")[1]) == 1e-12 * 100.0
    assert rows[-1].split(",")[1] == "0"  # closing step keeps no panel

    comments, header, rows = csv_parts(read(tmp_path / "continuation_terms.csv"))
    assert header == ["k", "m", "rho", "term21a", "term21b", "term22"]
    assert len(rows) == 12

    comments, header, rows = csv_parts(read(tmp_path / "continuation_tn.csv"))
    assert header == ["i", "j", "value"]
    assert any(c.startswith("# block_sizes=") for c in comments)
    dim = int(next(c for c in comments if "dim=" in c).split("dim=")[1].split()[0])
    # entries stay inside the declared dimension and on the block band
    for r in rows[:50]:
        i, j, _ = r.split(",")
        assert 0 <= int(i) < dim and 0 <= int(j) < dim

    comments, header, rows = csv_parts(read(tmp_path / "continuation_spread.csv"))
    assert header == ["lambda", "width", "count"]
    assert len(rows) == 48
    info = next(c for c in comments if "bound=" in c)
    assert "holds=" in info and "max_width=" in info
    assert sum(int(r.split(",")[2]) for r in rows) == dim

    comments, header, rows = csv_parts(read(tmp_path / "continuation_clusters.csv"))
    assert header == ["kind", "theta_min", "theta_max", "members"]
    kinds = {r.split(",")[0] for r in rows}
    assert kinds <= {"separated", "proper", "improper"}
    members = [int(x) for r in rows for x in r.split(",")[3].split(";")]
    assert sorted(members) == list(range(dim))


def test_prefix_without_a_selection_writes_a_nan_row(tmp_path):
    # at k = 7 no Ritz pair of this run has a residual bound above mu * norm(A)
    assert main(["continuation", "--matrix", "strakos48(0.1,100)", "--p", "2", "--k", "8",
                 "--mu", "3e-2", "--seed", "2", "--out", str(tmp_path)]) == 0
    _, _, rows = csv_parts(read(tmp_path / "continuation_terms.csv"))
    assert [r.split(",")[0] for r in rows] == [str(kk) for kk in range(1, 9)]
    assert rows[6] == "7,0,nan,nan,nan,nan"
    assert "nan" not in rows[5] + rows[7]


def test_kron_spread_uses_the_certificate_spectrum(tmp_path, monkeypatch):
    # a _kron problem has no generator spectrum: the certificate and the
    # written spread both use the run's eigenvalues, and the operator gets
    # no eigh of its own; T_N gets exactly one, the certificate's
    import blocklanczos.continuation as continuation
    from blocklanczos import interval_spread

    real_certificate, real_eigh = continuation.theorem1_certificate, np.linalg.eigh
    seen, eigh_shapes = [], []

    def certificate(tn, n_blocks, basis, a, epsilon2, *args):
        seen.append((a, real_certificate(tn, n_blocks, basis, a, epsilon2, *args)))
        return seen[-1][1]

    def eigh(x, *args, **kwargs):
        eigh_shapes.append(np.shape(x))
        return real_eigh(x, *args, **kwargs)

    monkeypatch.setattr(continuation, "theorem1_certificate", certificate)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert main(["continuation", "--matrix", "strakos48(0.1,100)_kron", "--k", "24",
                 "--mu", "auto", "--out", str(tmp_path)]) == 0
    (op, cert), = seen
    assert op.shape not in eigh_shapes
    # T_N is larger than every T_k (k <= 24, p = 2) the prefix scan solves
    assert cert.thetas.size > 24 * 2 and eigh_shapes.count((cert.thetas.size,) * 2) == 1
    comments, _, _ = csv_parts(read(tmp_path / "continuation_spread.csv"))
    info = next(c for c in comments if "max_width=" in c)
    written = float(info.split("max_width=")[1].split()[0])
    assert written == interval_spread(cert.thetas, op.eigvals).max_width
    assert ("holds=%d" % cert.holds) in info


def test_interlacing_artifact(tmp_path):
    rc = main([
        "interlacing", "--matrix", "strakos(16,0.5,4)", "--p", "2",
        "--k", "8", "--out", str(tmp_path),
    ])
    assert rc == 0
    comments, header, rows = csv_parts(read(tmp_path / "interlacing.csv"))
    assert header == ["k", "i", "j", "theta_lo", "theta_hi", "contains"]
    eq6 = next(c for c in comments if "eq6_inequalities=" in c)
    assert "eq6_violations=0" in eq6
    conj = next(c for c in comments if "conjecture_checks=" in c)
    assert "percentage=100" in conj
    assert all(r.split(",")[5] in ("0", "1") for r in rows)
    assert all(r.split(",")[5] == "1" for r in rows)
    # row count: every (step, interval, later step) triple appears
    want = 0
    for kk in range(1, 8):
        size = kk * 2
        want += max(size - 2, 0) * (8 - kk)
    assert len(rows) == want


def test_mtx_input(tmp_path):
    rc = main([
        "fp-diagnostics", "--mtx", os.path.join(DATA, "coord_sym.mtx"),
        "--p", "1", "--k", "2", "--out", str(tmp_path),
    ])
    assert rc == 0
    _, _, rows = csv_parts(read(tmp_path / "fp_diagnostics.csv"))
    assert len(rows) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    import blocklanczos
    assert blocklanczos.__version__ in capsys.readouterr().out


class _Recorder:
    """Stands in for a matplotlib figure or axes and logs every call."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.calls.append((name, args, kwargs))


def _line_style(args, kwargs):
    """(linestyle, marker) the way matplotlib reads a fmt string or ls=."""
    fmt = args[2] if len(args) > 2 else ""
    ls = next((s for s in ("--", "-.", ":", "-") if s in fmt), None)
    marker = fmt.replace(ls, "", 1) if ls else fmt
    ls = kwargs.get("ls", kwargs.get("linestyle", ls))
    return (ls or ("None" if marker else "-")), (marker or None)


def _comment_values(comments):
    return dict(t.split("=", 1) for c in comments for t in c.split() if "=" in t)


# per script: CSV, x column, y columns, group-by column, floor on y, solid
# or dashed series, marker, and the header keys (or constants) of its guides
PLOTS = {
    "blurred-cg": [
        ("blurred_cg.csv", "iteration", ["trace_error"], "series", None,
         {"dr_exact_d1": "--", "dr_exact_d2": "--"}, None, [1e-12]),
    ],
    "fp-diagnostics": [
        ("fp_diagnostics.csv", "j",
         ["delta_v_norm", "normality", "local_orth", "beta_norm", "global_orth"],
         None, None, {}, None, ["np_eps", "np_eps_a_norm"]),
    ],
    "continuation": [
        ("continuation_h_norms.csv", "j", ["h_norm"], None, None, {}, "o", []),
        ("continuation_terms.csv", "k", ["term21a", "term21b", "term22"], None, None,
         {}, "o", ["mu_a_norm"]),
        ("continuation_spread.csv", "lambda", ["width"], None, 1e-18,
         {"width": "None"}, ".", ["bound"]),
    ],
}


@pytest.mark.parametrize("argv", [
    ["blurred-cg", "--matrix", "strakos(12,0.5,4)", "--p", "2", "--m", "3",
     "--delta", "5,0.5", "--seed", "2"],
    ["fp-diagnostics", "--matrix", "strakos48(0.1,100)", "--k", "8"],
    ["continuation", "--matrix", "strakos48(0.1,100)", "--p", "2", "--k", "12",
     "--mu", "1e-5"],
])
def test_plot_scripts_draw_the_csv(tmp_path, monkeypatch, argv):
    # the scripts run against a stub pyplot, so no matplotlib is needed
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for csv_name, x, ys, group, floor, styles, marker, guides in PLOTS[argv[0]]:
        calls = []
        plt = types.ModuleType("matplotlib.pyplot")
        plt.subplots = lambda **kwargs: (_Recorder([]), _Recorder(calls))
        mpl = types.ModuleType("matplotlib")
        mpl.pyplot = plt
        monkeypatch.setitem(sys.modules, "matplotlib", mpl)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", plt)
        runpy.run_path(str(tmp_path / csv_name.replace(".csv", "_plot.py")),
                       run_name="__main__")

        comments, header, rows = csv_parts(read(tmp_path / csv_name))
        assert {x, group, *ys} - {None} <= set(header)
        col = {name: [r.split(",")[i] for r in rows] for i, name in enumerate(header)}
        want = {}
        if group:
            for label in sorted(set(col[group])):
                pick = [i for i, g in enumerate(col[group]) if g == label]
                want[label] = ([float(col[x][i]) for i in pick],
                               [float(col[ys[0]][i]) for i in pick])
        else:
            for name in ys:
                want[name] = ([float(v) for v in col[x]], [float(v) for v in col[name]])
        if floor is not None:
            want = {k: (xv, [max(v, floor) for v in yv]) for k, (xv, yv) in want.items()}

        lines = [c for c in calls if c[0] in ("plot", "semilogy", "loglog")]
        assert len(lines) == len(want)
        for (_, args, kwargs), (name, (xv, yv)) in zip(lines, want.items()):
            assert kwargs.get("label") == (name if len(want) > 1 else None)
            np.testing.assert_array_equal(np.asarray(args[0], dtype=float), xv)
            np.testing.assert_array_equal(np.asarray(args[1], dtype=float), yv)
            assert _line_style(args, kwargs) == (styles.get(name, "-"), marker)

        values = _comment_values(comments)
        drawn = [c[1][0] if c[1] else c[2]["y"] for c in calls if c[0] == "axhline"]
        expected = [g if not isinstance(g, str) else float(values[g])
                    for g in guides if isinstance(g, float) or values[g] != "None"]
        assert drawn == expected
