"""DESIGN.md §3 (the experiment index) names only files and modules that exist."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _section3() -> str:
    text = (ROOT / "DESIGN.md").read_text()
    start = text.index("## 3. Experiment index")
    return text[start : text.index("\n## 4.", start)]


def test_every_named_bench_exists():
    benches = set(re.findall(r"`(benchmarks/[\w/]+\.py)`", _section3()))
    assert benches
    assert sorted(b for b in benches if not (ROOT / b).is_file()) == []


def test_every_named_module_exists():
    # `repro.metrics.*` names the package
    modules = {m.removesuffix(".*") for m in re.findall(r"`(repro(?:\.\w+)*(?:\.\*)?)`", _section3())}
    assert modules
    assert sorted(m for m in modules if importlib.util.find_spec(m) is None) == []
