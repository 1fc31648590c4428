"""Figure 11 — effect of the node size (update I/O, update CPU, garbage).

Regenerates the three panels over node sizes 1024–8192 bytes and asserts
the paper's qualitative findings on the two counted ones: larger nodes
mildly reduce update I/O (a) and sharply reduce the garbage ratio (c).
Panel (b), per-update CPU, is archived but not asserted: the paper's rise
with the node size does not reproduce (EXPERIMENTS.md says why).
"""

from conftest import archive, by_tree, run_experiment

from repro.experiments import run_fig11, series_table


def test_fig11_node_size(benchmark):
    result = run_experiment(benchmark, run_fig11)
    archive(
        "fig11_node_size",
        [
            "Figure 11(a) — average update I/O vs node size",
            series_table(result, "node_size", "tree", "update_io"),
            "Figure 11(b) — average update CPU (ms) vs node size",
            series_table(result, "node_size", "tree", "update_cpu_ms"),
            "Figure 11(c) — garbage ratio vs node size",
            series_table(result, "node_size", "tree", "garbage_ratio"),
        ],
    )

    for tree in ("RUM-tree(token)", "RUM-tree(touch)"):
        io = by_tree(result, tree, "update_io")
        garbage = by_tree(result, tree, "garbage_ratio")
        # (a) larger nodes do not increase update I/O (fewer splits).
        assert io[-1] <= io[0] + 0.25
        # (c) the garbage ratio decreases with the node size.
        assert garbage[-1] <= garbage[0] + 1e-9

    # (c) quantitatively: the token variant's garbage ratio at 8192 B is
    # well below its 1024 B value.
    token_garbage = by_tree(result, "RUM-tree(token)", "garbage_ratio")
    assert token_garbage[-1] < 0.7 * token_garbage[0] + 1e-9
