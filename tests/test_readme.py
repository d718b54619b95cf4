"""The README's Python examples run as written."""

import inspect
import re
from pathlib import Path

import blocklanczos

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _shown(params):
    return ", ".join(p.name if p.default is p.empty else "%s=%r" % (p.name, p.default)
                     for p in params.values())


def test_readme_stage_list_matches_the_signatures():
    text = README.read_text()
    stages = text[text.index("The stages stay available one by one:"):]
    stages = stages[: stages.index("\n## ")]
    shown = {}
    for name, args in re.findall(r"`(\w+)\(([^`]*)\)`", stages):
        if args != "...":
            shown[name] = " ".join(args.split())
    assert {"continue_prefix", "continuation_run", "build_wk"} <= set(shown)
    for name, args in shown.items():
        assert args == _shown(inspect.signature(getattr(blocklanczos, name)).parameters), name
