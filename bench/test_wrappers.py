"""The benchmark's wrappers must not change what the engine emits.

    python3 -m pytest bench/test_wrappers.py
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import specdec  # noqa: E402
from run import NEXT_PER_SLICE, Clock, build_traced_models  # noqa: E402
from spans import Tracer, Wrapper  # noqa: E402
from specdec.harness import build_models  # noqa: E402

LENGTH = 28


@pytest.fixture(scope="module")
def config():
    return specdec.parse_config(str(BENCH / "workloads" / "tree-default.json"), {"seed": 0})


@pytest.mark.parametrize("policy", [specdec.AcceptancePolicy.strict(),
                                    specdec.AcceptancePolicy.relaxed(9)])
def test_wrapped_models_emit_identical_tokens(config, policy):
    params = config.tree_params()
    verifier, draft = build_models(config)
    tracer = Tracer(params.max_nodes, params.max_depth)
    traced_verifier, traced_draft = tracer.wrap(*build_traced_models(specdec, config, tracer))

    steps = 0
    for index in range(3):
        state = specdec.PrefixState(prompt_id=f"ep{index}", observation_id=f"obs{index}")
        plain = specdec.decode_episode(state, verifier, draft, params, policy, LENGTH)
        tracer.begin()
        traced = specdec.decode_episode(
            state, traced_verifier, traced_draft, params, policy, LENGTH)
        assert tracer.end(index, 0.0, 1.0, traced[1], policy) == []
        assert traced == plain
        assert specdec.ar_decode(state, traced_verifier, LENGTH) == \
            specdec.ar_decode(state, verifier, LENGTH)
        steps += len(plain[1])
    assert tracer.steps == steps
    summary = tracer.summary()
    assert summary["models.draft.rounds_per_step"] == params.max_depth
    assert summary["models.verifier.nodes_scored_per_step"] == params.max_nodes + 1


def test_clock_counts_the_latency_each_round_injects(config):
    params = config.tree_params()
    verifier, draft = build_models(config)
    clock = Clock(verify_latency=1e-4, draft_latency=1e-5)
    clocked_verifier = Wrapper(specdec.TimedVerifier(verifier, 1e-4),
                               {"next": clock.on_next, "batch": clock.on_batch})
    clocked_draft = Wrapper(specdec.TimedDraft(draft, 1e-5), {"propose_many": clock.on_draft})
    state = specdec.PrefixState(prompt_id="ep0", observation_id="obs0")
    policy = specdec.AcceptancePolicy.strict()

    tokens, outcomes = specdec.decode_episode(
        state, clocked_verifier, clocked_draft, params, policy, LENGTH)
    assert (tokens, outcomes) == specdec.decode_episode(
        state, verifier, draft, params, policy, LENGTH)
    rounds = len(outcomes)
    injected = rounds * 1e-4 + rounds * params.max_depth * 1e-5
    assert clock.injected == pytest.approx(injected)
    assert len(clock.marks) == len(clock.op_s) == rounds
    times = clock.reference(0.0, clock.marks[-1][0] + clock.sliced)
    assert len(times) == rounds + 1
    assert times == sorted(times) and times[-1] > injected

    clock.reset()
    specdec.ar_decode(state, clocked_verifier, LENGTH)
    assert clock.injected == pytest.approx(LENGTH * 1e-4)
    assert len(clock.marks) == LENGTH // NEXT_PER_SLICE


class Model:
    vocab_size = 7

    def propose_many(self, *args, **kwargs):
        return args, kwargs


def test_wrapper_forwards_arguments_and_attributes():
    calls = []
    wrapped = Wrapper(Model(), {"propose_many": lambda *call: calls.append(call)})
    assert wrapped.vocab_size == 7
    assert wrapped.propose_many([1], k=3) == (([1],), {"k": 3})
    assert len(calls) == 1 and calls[0][2:] == (([1],), {"k": 3}, (([1],), {"k": 3}))


def test_missing_method_raises_like_the_bare_model_and_records_nothing():
    calls = []
    wrapped = Wrapper(Model(), {"features": lambda *call: calls.append(call)})
    with pytest.raises(AttributeError):
        wrapped.features
    assert calls == []
