"""Streaming ≡ materialized: every workload builder, multiple seeds.

``stream=True`` swaps a builder's materialized program lists for lazy
:class:`~repro.workloads.streams.ProgramStream` specs.  The contract is that
the streamed programs carry a *byte-identical semantic payload* — prompt
tokens, output lengths, user/session/program identities, region, stage
structure — for every builder and seed; only the global ``request_id``
counter values may differ (allocation order interleaves differently).

The golden-trace tests separately pin that whole experiments produce
bit-identical metrics through the streamed path; this file is the
per-program microscope that localizes any divergence to a builder.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.diurnal_sweep import build_skewed_workload
from repro.experiments.workloads import (
    build_arena_workload,
    build_mixed_tree_workload,
    build_tot_workload,
    build_wildchat_workload,
)
from repro.workloads import ProgramStream

SEEDS = [411, 412, 413]

BUILDERS = {
    "wildchat": build_wildchat_workload,
    "arena": build_arena_workload,
    "tot": build_tot_workload,
    "mixed-tree": build_mixed_tree_workload,
    "skewed": build_skewed_workload,
}


def _request_payload(request):
    """Everything semantically meaningful about a request; excludes the
    global ``request_id`` allocation counter by design."""
    return (
        tuple(request.prompt_tokens),
        request.output_len,
        request.user_id,
        request.session_id,
        request.region,
    )


def _program_payload(program):
    return (
        program.program_id,
        program.user_id,
        program.region,
        program.kind,
        tuple(tuple(_request_payload(r) for r in stage) for stage in program.stages),
    )


def _spec_payloads(spec):
    return {
        region: [_program_payload(p) for p in programs]
        for region, programs in spec.programs_by_region.items()
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BUILDERS), ids=sorted(BUILDERS))
def test_streamed_payload_identical_to_materialized(name, seed):
    build = BUILDERS[name]
    materialized = build(scale=0.1, seed=seed, stream=False)
    streamed = build(scale=0.1, seed=seed, stream=True)
    # The streamed spec really is lazy, not a list in disguise.
    for programs in streamed.programs_by_region.values():
        assert isinstance(programs, ProgramStream)
    assert _spec_payloads(streamed) == _spec_payloads(materialized)
    assert streamed.clients_per_region == materialized.clients_per_region
    assert streamed.hash_key == materialized.hash_key


@pytest.mark.parametrize("name", sorted(BUILDERS), ids=sorted(BUILDERS))
def test_stream_replays_identically(name):
    """fresh_copy()/re-iteration regenerates the exact same programs — the
    property sweep workers rely on."""
    spec = BUILDERS[name](scale=0.1, seed=SEEDS[0], stream=True)
    for programs in spec.programs_by_region.values():
        first = [_program_payload(p) for p in programs]
        again = [_program_payload(p) for p in programs.fresh_copy()]
        assert again == first


@pytest.mark.parametrize("name", sorted(BUILDERS), ids=sorted(BUILDERS))
def test_stream_length_matches_materialized(name):
    materialized = BUILDERS[name](scale=0.1, seed=SEEDS[1], stream=False)
    streamed = BUILDERS[name](scale=0.1, seed=SEEDS[1], stream=True)
    for region, programs in streamed.programs_by_region.items():
        assert len(programs) == len(materialized.programs_by_region[region])
        assert len(programs.materialize()) == len(programs)


@pytest.mark.parametrize("name", sorted(BUILDERS), ids=sorted(BUILDERS))
def test_stream_split_matches_list_round_robin(name):
    """stream.split(n)[i] must equal programs[i::n] of the materialized
    list — the layout clients are assigned by."""
    streamed = BUILDERS[name](scale=0.1, seed=SEEDS[2], stream=True)
    for programs in streamed.programs_by_region.values():
        full = [_program_payload(p) for p in programs]
        for parts in (1, 2, 3):
            views = programs.split(parts)
            assert len(views) == parts
            for index, view in enumerate(views):
                assert [_program_payload(p) for p in view] == full[index::parts]


@pytest.mark.parametrize("name", sorted(BUILDERS), ids=sorted(BUILDERS))
def test_stream_specs_are_picklable(name):
    """Sweep workers receive specs over multiprocessing: the frozen spec
    must round-trip through pickle and still generate identical programs."""
    streamed = BUILDERS[name](scale=0.1, seed=SEEDS[0], stream=True)
    for programs in streamed.programs_by_region.values():
        clone = pickle.loads(pickle.dumps(programs))
        assert [_program_payload(p) for p in clone] == [
            _program_payload(p) for p in programs
        ]


def test_unknown_stream_factory_lists_the_registered_ones():
    """A stream naming no registered factory fails with the same kind of
    error as every other registry, listing what is registered."""
    stream = ProgramStream(factory="no-such-stream", region="us", num_programs=1)
    with pytest.raises(
        ValueError,
        match=r"unknown stream factory 'no-such-stream'; registered stream "
        r"factories: \(.*'conversation'.*'tree-of-thoughts'.*\)",
    ):
        list(stream)
