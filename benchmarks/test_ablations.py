"""Ablation benches for the design choices DESIGN.md calls out."""

import time

from conftest import run_once

from repro.analysis import render_table
from repro.distance import ted
from repro.distance.ted import clear_ted_cache
from repro.metrics.treemetrics import tree_distance, unit_trees
from repro.trees.stats import cached_label_histogram, histogram_lower_bound
from repro.workflow.comparer import MetricSpec, divergence


def test_ablation_name_normalisation(benchmark, babelstream_all, outdir):
    """§III-B: without name normalisation, programmer-chosen identifiers
    dominate TED and drown the structural signal."""
    a = babelstream_all["serial"].units["main"]
    b = babelstream_all["omp"].units["main"]

    def measure():
        # the indexed trees are already normalised; reconstruct denormalised
        # labels from the preserved attrs
        def denorm(t):
            def fix(n):
                name = n.attrs.get("name")
                if name:
                    n.label = name
                return n

            return t.map_nodes(fix)

        ta, tb = unit_trees(a, "sem"), unit_trees(b, "sem")
        d_norm = ted(ta, tb).distance
        d_raw = ted(denorm(ta), denorm(tb)).distance
        return d_norm, d_raw

    d_norm, d_raw = run_once(benchmark, measure)
    print(f"\nTED serial↔omp: normalised={d_norm}, with names={d_raw}")
    # normalisation can only reduce relabel costs
    assert d_norm <= d_raw


def test_ablation_match_function(benchmark, tealeaf_all):
    """§III-C: 'In principle, match is not required as the entire codebase
    can be treated as a single large tree ... In practice, this adds
    significant runtime overhead.' With units matched the work factors."""
    from repro.trees.node import Node

    a = tealeaf_all["serial"]
    b = tealeaf_all["omp"]

    def measure():
        clear_ted_cache()
        t0 = time.perf_counter()
        d_matched, _ = tree_distance(a, b, "sem")
        t_matched = time.perf_counter() - t0
        # whole-codebase variant: units glued under one root
        ta = Node("codebase", "root", [unit_trees(u, "sem") for u in a.units.values()])
        tb = Node("codebase", "root", [unit_trees(u, "sem") for u in b.units.values()])
        clear_ted_cache()
        t0 = time.perf_counter()
        d_whole = ted(ta, tb).distance
        t_whole = time.perf_counter() - t0
        return d_matched, t_matched, d_whole, t_whole

    d_matched, t_matched, d_whole, t_whole = run_once(benchmark, measure)
    print(
        f"\nmatched units: d={d_matched} in {t_matched:.2f}s | "
        f"single large tree: d={d_whole} in {t_whole:.2f}s"
    )
    # gluing adds only the synthetic root: distances nearly identical
    assert abs(d_whole - d_matched) <= 2


def test_ablation_coverage_masking(benchmark, babelstream_all, outdir):
    """§IV-D: the +coverage variant prunes never-executed tree regions."""
    serial = babelstream_all["serial"]

    def measure():
        rows = []
        for model in ("omp", "cuda", "sycl-usm"):
            base = divergence(serial, babelstream_all[model], MetricSpec("Tsem"))
            cov = divergence(serial, babelstream_all[model], MetricSpec("Tsem", coverage=True))
            rows.append((model, base, cov))
        return rows

    rows = run_once(benchmark, measure)
    table = render_table(
        ["model", "Tsem", "Tsem+cov"], [(m, f"{b:.3f}", f"{c:.3f}") for m, b, c in rows]
    )
    print("\n" + table)
    for _m, base, cov in rows:
        assert cov > 0.0
        # masked trees are subsets: raw distances shrink or stay put, but
        # normalisation can move either way — only sanity-bound it
        assert cov < 1.5


def test_ablation_histogram_bound_prefilter(benchmark, tealeaf_all):
    """The label-histogram bound skips exact TED when trees are far apart
    relative to a search cutoff; measure its tightness on real pairs."""
    units = [cb.units["main"] for cb in tealeaf_all.values()]

    def measure():
        ratios = []
        for i in range(len(units)):
            for j in range(i + 1, len(units)):
                ta, tb = unit_trees(units[i], "sem"), unit_trees(units[j], "sem")
                bound = histogram_lower_bound(
                    cached_label_histogram(ta), cached_label_histogram(tb)
                )
                exact = ted(ta, tb).distance
                if exact:
                    ratios.append(bound / exact)
                    assert bound <= exact  # validity on real trees
        return ratios

    ratios = run_once(benchmark, measure)
    print(f"\nlower-bound tightness over {len(ratios)} TeaLeaf pairs: "
          f"min={min(ratios):.2f} mean={sum(ratios)/len(ratios):.2f} max={max(ratios):.2f}")
    assert max(ratios) <= 1.0


def test_ablation_batched_vs_classic_kernel(benchmark):
    """The NumPy row-sweep kernel must agree with the classic per-keyroot
    formulation (the pure-Python generic-cost kernel with unit costs) and
    be faster than it."""
    import random

    from repro.distance.zhang_shasha import zhang_shasha_distance, zhang_shasha_generic
    from repro.trees.node import Node

    random.seed(99)

    def rand_tree(n):
        nodes = [Node(random.choice("abcde"))]
        for _ in range(n - 1):
            node = Node(random.choice("abcde"))
            random.choice(nodes).add(node)
            nodes.append(node)
        return nodes[0]

    # small enough for the pure-Python reference to finish in seconds
    a, b = rand_tree(250), rand_tree(250)

    def measure():
        t0 = time.perf_counter()
        d_batched = zhang_shasha_distance(a, b)
        t_batched = time.perf_counter() - t0
        t0 = time.perf_counter()
        d_classic = zhang_shasha_generic(
            a, b, lambda n: 1.0, lambda n: 1.0, lambda x, y: float(x.label != y.label)
        )
        t_classic = time.perf_counter() - t0
        return d_batched, t_batched, d_classic, t_classic

    d_batched, t_batched, d_classic, t_classic = run_once(benchmark, measure)
    print(
        f"\n250×250 random trees: row sweep d={d_batched} in {t_batched:.3f}s, "
        f"classic d={d_classic:g} in {t_classic:.3f}s"
    )
    assert d_batched == d_classic
    assert t_batched < t_classic


def test_ablation_weighted_ted(benchmark, minibude_all):
    """Paper §III-B future work: 'adding new code may have a different
    productivity impact than removing existing code' — explore asymmetric
    insert/delete weights on a real port pair."""
    from repro.distance import Cost

    a = unit_trees(minibude_all["serial"].units["main"], "src")
    b = unit_trees(minibude_all["omp"].units["main"], "src")

    def measure():
        rows = []
        for w_ins, w_del in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.5, 1.0)):
            cost = Cost(
                delete=lambda n, w=w_del: w,
                insert=lambda n, w=w_ins: w,
                relabel=lambda x, y: 0.0 if x.label == y.label else 1.0,
            )
            rows.append((w_ins, w_del, ted(a, b, cost).distance))
        return rows

    rows = run_once(benchmark, measure)
    table = render_table(
        ["insert w", "delete w", "distance"], [(i, d, f"{v:.1f}") for i, d, v in rows]
    )
    print("\n" + table)
    base = rows[0][2]
    # the omp port only *adds* code over serial, so penalising insertions
    # raises the distance while penalising deletions leaves it unchanged
    assert rows[1][2] > base       # insert 2x
    assert rows[2][2] == base      # delete 2x: nothing is deleted
    assert rows[3][2] < base       # insert 0.5x
