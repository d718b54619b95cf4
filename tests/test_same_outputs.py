"""The output-digest modes of tools/same_outputs.py."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture()
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # one small case stands in for the fixed list
    monkeypatch.setattr(module, "configs", lambda: iter([
        ("readme_interlacing", ["interlacing", "--matrix", "strakos(16,0.5,4)", "--p", "2",
                                "--k", "8"])]))
    return module


def test_written_digests_check_and_catch_a_changed_output(tool, tmp_path, capsys):
    digests = tmp_path / "digests.txt"
    assert tool.main(["--write", str(digests), str(SRC)]) == 0
    lines = digests.read_text().splitlines()
    assert lines[1] == "# environment: " + tool.environment()
    assert len(lines) == 2 + 4  # the CSV, stdout, stderr and exit status
    assert tool.main(["--check", str(digests), str(SRC)]) == 0
    assert capsys.readouterr().out.endswith("0 of 4 outputs differ\n")
    lines[2:] = [("0" * 64) + line[64:] if "interlacing.csv" in line else line
                 for line in lines[2:]]
    digests.write_text("\n".join(lines) + "\n")
    assert tool.main(["--check", str(digests), str(SRC)]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS readme_interlacing: interlacing.csv\n" in out
    assert out.endswith("1 of 4 outputs differ\n")


def test_check_in_another_environment_runs_nothing(tool, tmp_path, capsys, monkeypatch):
    digests = tmp_path / "digests.txt"
    digests.write_text("# blocklanczos output digests\n# environment: python=0 numpy=0\n")
    monkeypatch.setattr(tool, "run_case", pytest.fail)
    assert tool.main(["--check", str(digests), str(SRC)]) == 2
    assert capsys.readouterr().out.startswith("environment differs:")


@pytest.mark.parametrize("argv", [["SRC"], ["--write", "d.txt", "SRC", "SRC"]])
def test_tree_count_follows_the_mode(tool, argv):
    with pytest.raises(SystemExit) as info:
        tool.main([str(SRC) if x == "SRC" else x for x in argv])
    assert info.value.code == 2
