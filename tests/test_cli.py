"""Command line driver: artifacts, provenance, reproducibility, errors."""

import os
import py_compile

import numpy as np
import pytest

from blocklanczos.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


def read(path):
    with open(path) as fh:
        return fh.read()


def csv_parts(text):
    comments = [l for l in text.splitlines() if l.startswith("#")]
    body = [l for l in text.splitlines() if not l.startswith("#")]
    return comments, body[0].split(","), body[1:]


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
        "svd-tol = 1e-10\n"
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
    assert "svd_tol=1e-10" in comments[1]
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
    ]
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("verbosity = 3\n")
    bad[0] = ["fp-diagnostics", "--config", str(cfgfile),
              "--matrix", "strakos48(0.1,100)", "--out", str(tmp_path)]
    for args in bad:
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")


@pytest.mark.parametrize("spec", ["strakos(16.7,0.1,100)", "random(16.7)",
                                  "strakos(inf,0.1,100)", "random(nan)"])
def test_non_integer_size_exits(tmp_path, capsys, spec):
    assert main(["fp-diagnostics", "--matrix", spec, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "whole number" in err
    assert not os.listdir(tmp_path)


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
