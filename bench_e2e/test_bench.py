"""Tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench_e2e -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.trees import from_sexpr  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def mirror(t):
    t.children = [mirror(c) for c in reversed(t.children)]
    return t


# -- keyroot sums --------------------------------------------------------------


def test_keyroot_sums_fig1_trees():
    # Fig. 1: T1 keyroots are b, body and call (sizes 1 + 2 + 6);
    # right-path keyroots are a, args and call (1 + 3 + 6)
    t1 = from_sexpr("(call (args a b) (body c))")
    t2 = from_sexpr("(ret c)")
    assert layers.keyroot_sums(t1) == (6, 9, 10)
    assert layers.keyroot_sums(t2) == (2, 2, 2)
    clock = layers.LayerClock()
    clock.kernel_pairs([(t1, t2)])
    assert clock.counts["zs.calls"] == 1
    assert clock.counts["zs.cells"] == 12
    assert clock.counts["zs.cells_left"] == 18
    assert clock.counts["zs.cells_right"] == 20


def test_keyroot_sums_hand_built_pair():
    # (r (x p q) y (z w)): left-sibling nodes q, y, z; right-sibling p, x, y
    a = from_sexpr("(r (x p q) y (z w))")
    # (r (s (t u v))): a single chain ending in two leaves
    b = from_sexpr("(r (s (t u v)))")
    assert layers.keyroot_sums(a) == (7, 7 + 1 + 1 + 2, 7 + 1 + 3 + 1)
    assert layers.keyroot_sums(b) == (5, 6, 6)
    clock = layers.LayerClock()
    clock.kernel_pairs([(a, b), (a, b)])
    assert clock.counts["zs.calls"] == 2
    assert clock.counts["zs.cells_left"] == 2 * 11 * 6
    assert clock.counts["zs.cells_right"] == 2 * 12 * 6
    # mirroring swaps the two decompositions
    n, left, right = layers.keyroot_sums(a)
    assert layers.keyroot_sums(mirror(a)) == (n, right, left)


# -- failure accounting --------------------------------------------------------


def _next_ulp(h: str) -> str:
    x = float.fromhex(h)
    return math.nextafter(x, math.inf).hex()


@pytest.mark.parametrize("workload", ["tealeaf-cluster", "babelstream-heatmap"])
def test_failed_share_catches_perturbed_and_nan_cells(workload):
    ref = workloads.load_reference(workload)
    outputs = json.loads(json.dumps(ref))
    n = len(ref["cells"])
    assert workloads.count_failures(outputs, ref) == (n, 0)
    first, second = list(outputs["cells"])[:2]
    perturbed = json.loads(json.dumps(ref))
    perturbed["cells"][first][0] = _next_ulp(perturbed["cells"][first][0])
    assert workloads.count_failures(outputs, perturbed) == (n, 1)
    outputs["cells"][second][0] = float("nan").hex()
    assert workloads.count_failures(outputs, perturbed) == (n, 2)
    # a NaN fails even where the reference itself holds NaN
    assert workloads.count_failures(outputs, outputs) == (n, 1)


def test_failed_share_catches_unit_changes():
    ref = workloads.load_reference("corpus-index")
    outputs = json.loads(json.dumps(ref))
    n = len(ref["units"])
    assert n == 45
    assert workloads.count_failures(outputs, ref) == (n, 0)
    keys = list(outputs["units"])
    outputs["units"][keys[0]][0][2] = "0" * 64  # another T_sem hash
    outputs["units"][keys[1]][3] = True  # quarantined
    outputs["units"][keys[2]][4] = True  # coverage run failed
    assert workloads.count_failures(outputs, ref) == (n, 3)
    assert workloads.count_failures(outputs, {}) == (n, n)


def test_tracing_loads_no_module_an_untraced_pass_lacks():
    # otherwise traced passes import less in their timed region, and the
    # tracing overhead reads low
    code = (
        "import sys, layers, workloads\n"
        "workloads.load_program()\n"
        "before = set(sys.modules)\n"
        "layers.LayerClock().install()\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('repro')))\n"
    )
    path = os.pathsep.join([str(REPO / "src"), str(REPO / "bench_e2e")])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_permutation_depends_only_on_seed():
    items = list(range(10))
    assert workloads.permuted(items, 4) == workloads.permuted(items, 4)
    assert sorted(workloads.permuted(items, 5)) == items
    assert workloads.permuted(items, 4) != workloads.permuted(items, 5)


# -- smoke runs ----------------------------------------------------------------

#: two-model subset of each workload -> operations per pass
SUBSETS = {
    "tealeaf-cluster": ("serial,cuda", 1),
    "babelstream-heatmap": ("serial,omp", 15),
    "corpus-index": ("babelstream-fortran/sequential,tealeaf/serial", 2),
}


def _run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench_e2e" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SUBSETS))
def test_smoke_end_to_end(workload):
    models, per_pass = SUBSETS[workload]
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "0",
                "--models", models)
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    # one cold pass and the minimum of one warm pass
    assert res["attempted"] == 2 * per_pass
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_smoke_all_workloads_in_one_command():
    models = "serial,cuda,tealeaf/serial,tealeaf/cuda"
    res = _result(_run("--workload", "all", "--seconds", "0", "--models", models))
    assert res["correct"] is True and res["failed"] == 0
    names = {
        f"{w}.{m['name']}": m["unit"] for w in workloads.WORKLOADS for m in SPEC["end_to_end"]
    }
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names


def test_smoke_traced_work_counts():
    proc = _run("--workload", "tealeaf-cluster", "--seed", "3", "--trace", "1",
                "--models", SUBSETS["tealeaf-cluster"][0])
    res = _result(proc)
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["cold.lang.units"] == 2 and metrics["warm.lang.units"] == 0
    assert metrics["cold.zs.calls"] == 1 and metrics["warm.zs.calls"] == 0
    assert metrics["warm.unitstore.loads"] == 2 and metrics["warm.cache.hits"] >= 1
    assert metrics["cold.zs.cells_left"] > 0 and metrics["cold.zs.cells_right"] > 0
    # a traced cold pass, then untraced and traced warm passes in turn
    assert res["attempted"] == (1 + 2 * run.OVERHEAD_PAIRS) * SUBSETS["tealeaf-cluster"][1]


def test_write_reference_refuses_a_model_subset():
    before = workloads.REFERENCE.read_bytes()
    proc = _run("--workload", "tealeaf-cluster", "--write-reference", "--models", "serial,cuda")
    assert proc.returncode == 2 and "--models" in proc.stderr
    assert workloads.REFERENCE.read_bytes() == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench_e2e", tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "corpus-index", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
