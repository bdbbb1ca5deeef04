"""Golden-trace equivalence for the hot-path optimizations.

The optimized :class:`~repro.core.prefix_tree.PrefixTree` /
:class:`~repro.replica.kv_cache.RadixCache` / load-estimate caching must be
*behaviour preserving*: for a fixed seed the routing decisions — and hence
every sweep metric — have to be bit-identical to the pre-optimization
implementation.  The fixture committed next to this test was generated with
the original full-scan implementations (PR 2 state) by running exactly the
grid below; the test replays the grid on the current code and compares the
full ``RunMetrics.to_dict()`` payloads.

The grid is deliberately chosen to exercise the rewritten paths hard:

* ``skywalker`` with a tiny ``trie_max_tokens`` so the router-side prefix
  tree evicts constantly (the O(log n) heap path replaces a full-tree scan),
* ``sglang-router`` as the second PrefixTree consumer (blind pushing, its
  own tree instance),
* a shrunken KV budget (~7k tokens per replica) so the replica-side
  :class:`RadixCache` hits capacity and takes the LRU eviction path,
* ``wildchat`` (multi-turn, prefix-heavy) and ``chatbot-arena`` workloads.

One deliberate semantic change rides along with the optimizations: the
``best_target`` tie-break (most-recent insert instead of ``min(key=repr)``,
see the satellite regression test in ``tests/core/test_prefix_tree.py``).
On this grid the two rules decide identically — verified by swapping the
legacy rule into the optimized structure and reproducing the full-scale
Fig. 8/9/10 artifacts bit-for-bit — so the fixture pins the optimizations
themselves, not the tie-break.

Regenerate (only when a deliberate behaviour change is introduced) with::

    PYTHONPATH=src python tests/experiments/test_golden_trace.py --regen
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import REGISTRY, ClusterConfig, run_sweep
from repro.experiments.workloads import MACRO_WORKLOAD_BUILDERS
from repro.replica.model_profile import LLAMA_8B_L4

# The golden grid evicts constantly on both PrefixTree and RadixCache --
# exactly where strict-invariants drift checks earn their keep.
pytestmark = pytest.mark.strict_invariants

#: The paper's L4 profile with the KV pool shrunk to ~7k tokens, so the
#: radix cache evicts under the golden workloads instead of never filling.
SMALL_KV_PROFILE = dataclasses.replace(
    LLAMA_8B_L4, name="llama-8b/small-kv", kv_bytes_per_token=1024 * 1024
)

FIXTURE = Path(__file__).parent / "data" / "golden_sweep_fixture.json"

GRID_SEED = 3
GRID_SCALE = 0.2
GRID_DURATION_S = 60.0
GRID_WORKLOADS = ("wildchat", "chatbot-arena")


def _grid_systems():
    return [
        # Tiny trie capacity => constant eviction pressure on the router tree.
        REGISTRY.spec("skywalker", trie_max_tokens=4000, label="skywalker-tiny-trie"),
        REGISTRY.spec("sglang-router"),
    ]


def _run_grid():
    workloads = [
        MACRO_WORKLOAD_BUILDERS[name](scale=GRID_SCALE, seed=GRID_SEED)
        for name in GRID_WORKLOADS
    ]
    sweep = run_sweep(
        _grid_systems(),
        workloads,
        cluster=ClusterConfig(
            replicas_per_region={"us": 1, "eu": 1, "asia": 1},
            profile=SMALL_KV_PROFILE,
        ),
        duration_s=GRID_DURATION_S,
        seeds=[GRID_SEED],
    )
    return {
        workload: {system: metrics.to_dict() for system, metrics in row.items()}
        for workload, row in sweep.runs.items()
    }


def test_sweep_metrics_bit_identical_to_committed_golden_trace():
    fixture = json.loads(FIXTURE.read_text())
    fresh = json.loads(json.dumps(_run_grid()))  # normalise tuples/keys like the fixture
    assert fresh.keys() == fixture.keys()
    for workload in fixture:
        assert fresh[workload].keys() == fixture[workload].keys(), workload
        for system, expected in fixture[workload].items():
            actual = fresh[workload][system]
            assert actual == expected, (
                f"metrics for ({workload}, {system}) diverged from the golden trace"
            )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(_run_grid(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        print(__doc__)
