"""Unit tests for the Program container."""

from repro.workloads import Program

from ..conftest import make_request


def test_program_counts_and_iteration():
    stages = [[make_request(), make_request()], [make_request()]]
    program = Program(program_id="p0", user_id="u0", region="us", stages=stages)
    assert program.num_stages == 2
    assert program.num_requests == 3
    assert list(program.all_requests()) == stages[0] + stages[1]


def test_program_id_is_propagated_to_requests():
    stages = [[make_request()], [make_request()]]
    program = Program(program_id="prog-7", user_id="u1", region="eu", stages=stages)
    assert all(r.program_id == "prog-7" for r in program.all_requests())


def test_token_totals():
    a = make_request(prompt_len=10, output_len=3)
    b = make_request(prompt_len=20, output_len=7)
    program = Program(program_id="p1", user_id="u2", region="asia", stages=[[a], [b]])
    assert sum(r.prompt_len for r in program.all_requests()) == 30


def test_empty_program():
    program = Program(program_id="empty", user_id="u3", region="us")
    assert program.num_requests == 0
    assert program.num_stages == 0
    assert list(program.all_requests()) == []
