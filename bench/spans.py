"""Out-of-engine tracing: wrappers that time calls into the model objects.

The engine is driven through its public API only.  ``Wrapper`` sits around
a verifier or draft object that is handed to the engine: it forwards every
attribute it does not time and passes ``*args, **kwargs`` through untouched,
so it survives the model protocols shrinking.  A method the wrapped object
lacks raises ``AttributeError`` exactly as the bare object would and leaves
no event, so e.g. a verifier without ``features`` yields an absent span.

``Tracer`` collects the raw call events of one speculative decode and, when
the decode ends, folds them into spans (name, start, end, parent, episode)
and per-step layer counters.  Step boundaries come from the verifier's
batched round: step *k* runs from the end of round *k-1* (or the decode's
start) to the end of round *k*, so each step holds one tree build and one
batched verification, and the acceptance bookkeeping of the previous step.
"""

from __future__ import annotations

import json
from time import perf_counter

from specdec import enumerate_paths, verify_tree

# Per-step layer counters summed over every traced step; ``Tracer.summary``
# divides them by the step count.
STEP_FIELDS = (
    "step_ms",
    "features_ms",
    "build_ms",
    "draft_ms",
    "draft_rounds",
    "draft_states",
    "batch_ms",
    "nodes_scored",
    "nodes",
    "fill",
    "depth",
    "paths",
    "accepted",
    "verify_tree_ms",
    "injected_ms",
    "evals",
)


class Wrapper:
    """Forward attribute access to ``inner``; methods named in ``hooks`` are timed.

    ``hooks`` maps a method name to ``hook(t0, t1, args, kwargs, out)``,
    called after each successful call with the call's own arguments.
    """

    def __init__(self, inner, hooks):
        self._inner = inner
        self._hooks = hooks

    def __getattr__(self, name):
        if name in ("_inner", "_hooks"):
            raise AttributeError(name)
        attr = getattr(self._inner, name)
        hook = self._hooks.get(name)
        if hook is None or not callable(attr):
            return attr

        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = attr(*args, **kwargs)
            hook(t0, perf_counter(), args, kwargs, out)
            return out

        self.__dict__[name] = timed  # later lookups skip __getattr__
        return timed


def _call_args(args, kwargs):
    return list(args) + list(kwargs.values())


def _key(state, tokens):
    return (state.prompt_id, state.observation_id, tokens)


class Tracer:
    """Spans and layer counters for traced speculative decodes.

    ``verify_latency``/``draft_latency`` are the latencies injected per
    verifier and draft round (0 when none); they are subtracted from the
    step time to give the engine's own time.
    """

    def __init__(self, max_nodes: int, max_depth: int, verify_latency=0.0, draft_latency=0.0):
        self.max_nodes = max_nodes
        self.max_depth = max_depth
        self.verify_latency = verify_latency
        self.draft_latency = draft_latency
        self.spans: list[tuple] = []  # (id, parent, name, episode, start, end)
        self.totals = dict.fromkeys(STEP_FIELDS, 0.0)
        self.steps = 0
        self.distinct = 0
        self.next_calls = 0
        self.next_s = 0.0
        self._events: list[tuple] = []
        self._eval_states: list = []
        self._eval_batches: list = []

    def counter(self, verifier):
        """Wrap the verifier that both the engine and the draft query, to count scorings."""
        return Wrapper(verifier, {"next": self.on_eval_next, "batch": self.on_eval_batch})

    def wrap(self, verifier, draft):
        """Wrap the verifier and draft handed to the engine, to time their calls."""
        return (
            Wrapper(verifier, {
                "next": self.on_next, "batch": self.on_batch, "features": self.on_features,
            }),
            Wrapper(draft, {"propose_many": self.on_draft}),
        )

    # Hooks on the engine-facing verifier and draft.
    def on_features(self, t0, t1, args, kwargs, out):
        self._events.append(("features", t0, t1, None))

    def on_draft(self, t0, t1, args, kwargs, out):
        self._events.append(("draft", t0, t1, len(_call_args(args, kwargs)[0])))

    def on_batch(self, t0, t1, args, kwargs, out):
        state, tree = _call_args(args, kwargs)[:2]
        self._events.append(("batch", t0, t1, (state, tree, out)))

    def on_next(self, t0, t1, args, kwargs, out):
        self.next_calls += 1
        self.next_s += t1 - t0

    # Hooks on the counting verifier that both the engine and the draft query.
    def on_eval_next(self, t0, t1, args, kwargs, out):
        self._eval_states.append(_call_args(args, kwargs)[0])

    def on_eval_batch(self, t0, t1, args, kwargs, out):
        self._eval_batches.append(tuple(_call_args(args, kwargs)[:2]))

    def begin(self):
        """Drop events left by calls outside a traced decode (e.g. AR decoding)."""
        self._events.clear()
        self._eval_states.clear()
        self._eval_batches.clear()

    def span(self, parent, name, episode, start, end):
        self.spans.append((len(self.spans), parent, name, episode, start, end))
        return len(self.spans) - 1

    def _count_evals(self):
        keys = [_key(s, s.emitted) for s in self._eval_states]
        for state, tree in self._eval_batches:
            keys.append(_key(state, state.emitted))
            paths: list[tuple[int, ...]] = []
            for node in tree.nodes:
                base = state.emitted if node.parent < 0 else paths[node.parent]
                paths.append(base + (node.token,))
            keys.extend(_key(state, p) for p in paths)
        return len(keys), len(set(keys))

    def end(self, episode, start, end, outcomes, policy) -> list[str]:
        """Fold one decode's events into spans and counters; return check failures."""
        events, self._events = self._events, []
        evals, distinct = self._count_evals()
        self._eval_states, self._eval_batches = [], []
        problems: list[str] = []
        rounds = [i for i, ev in enumerate(events) if ev[0] == "batch"]
        if len(rounds) != len(outcomes):
            return [f"{len(rounds)} verifier rounds for {len(outcomes)} outcomes"]

        decode = self.span(None, "harness.run_episode", episode, start, end)
        step_totals = dict.fromkeys(STEP_FIELDS, 0.0)
        step_start, cursor = start, 0
        for k, index in enumerate(rounds):
            _, b0, b1, (state, tree, scores) = events[index]
            inner = events[cursor:index]
            step = self.span(decode, "verify.step", episode, step_start, b1)
            if k and inner and inner[0][1] > step_start:
                self.span(step, "verify.accept_gap", episode, step_start, inner[0][1])
            drafts = [ev for ev in inner if ev[0] == "draft"]
            build = None
            if drafts:
                build = self.span(step, "draft_tree.build_tree", episode, drafts[0][1], b0)
                step_totals["build_ms"] += (b0 - drafts[0][1]) * 1e3
            for name, t0, t1, n in inner:
                if name == "features":
                    self.span(step, "models.verifier.features", episode, t0, t1)
                    step_totals["features_ms"] += (t1 - t0) * 1e3
                else:
                    self.span(build, "models.draft.propose_many", episode, t0, t1)
                    step_totals["draft_ms"] += (t1 - t0) * 1e3
                    step_totals["draft_rounds"] += 1
                    step_totals["draft_states"] += n
            self.span(step, "models.verifier.batch", episode, b0, b1)

            verified = [scores.root.argmax] + [d.argmax for d in scores.nodes]
            t0 = perf_counter()
            replay = verify_tree(tree, verified, policy, start_position=state.position)
            t1 = perf_counter()
            if replay != outcomes[k]:
                problems.append(f"step {k}: verify_tree replay differs from the engine outcome")
            try:
                tree.validate()
            except ValueError as exc:
                problems.append(f"step {k}: invalid tree: {exc}")
            depth = max((node.depth for node in tree.nodes), default=0)
            if len(tree.nodes) > self.max_nodes or depth > self.max_depth:
                problems.append(f"step {k}: tree of {len(tree.nodes)} nodes, depth {depth}")

            step_totals["step_ms"] += (b1 - step_start) * 1e3
            step_totals["batch_ms"] += (b1 - b0) * 1e3
            step_totals["nodes_scored"] += 1 + len(scores.nodes)
            step_totals["nodes"] += len(tree.nodes)
            step_totals["fill"] += len(tree.nodes) / self.max_nodes
            step_totals["depth"] += depth
            step_totals["paths"] += len(enumerate_paths(tree))
            step_totals["accepted"] += outcomes[k].accepted
            step_totals["verify_tree_ms"] += (t1 - t0) * 1e3
            step_start, cursor = b1, index + 1

        rounds_total = step_totals["draft_rounds"]
        step_totals["injected_ms"] = (
            len(rounds) * self.verify_latency + rounds_total * self.draft_latency
        ) * 1e3
        step_totals["evals"] = evals
        for name, value in step_totals.items():
            self.totals[name] += value
        self.steps += len(rounds)
        self.distinct += distinct
        return problems

    def summary(self) -> dict[str, float]:
        """Per-step layer metrics over every traced decode, named as in BENCHMARK.json.

        Self times are a span minus its children: tree building minus draft
        rounds, and the step minus features, tree building, the batched
        round and the replayed ``verify_tree`` (which can read slightly
        negative when the remainder is below timing noise).  Evaluations
        count every prefix scored through the counting verifier, the
        draft's own ``next`` calls included; the distinct fraction is taken
        within each decode.
        """
        n = max(self.steps, 1)
        t = {name: value / n for name, value in self.totals.items()}
        covered = t["features_ms"] + t["build_ms"] + t["batch_ms"] + t["verify_tree_ms"]
        return {
            "models.draft.ms_per_step": t["draft_ms"],
            "models.draft.rounds_per_step": t["draft_rounds"],
            "models.draft.states_per_step": t["draft_states"],
            "models.verifier.batch_ms_per_step": t["batch_ms"],
            "models.verifier.nodes_scored_per_step": t["nodes_scored"],
            "models.verifier.evals_per_step": t["evals"],
            "models.verifier.distinct_frac": self.distinct / max(self.totals["evals"], 1),
            "models.verifier.features_ms_per_step": t["features_ms"],
            "models.verifier.next_us": self.next_s / max(self.next_calls, 1) * 1e6,
            "draft_tree.build_ms_per_step": t["build_ms"],
            "draft_tree.self_ms_per_step": t["build_ms"] - t["draft_ms"],
            "draft_tree.nodes_per_step": t["nodes"],
            "draft_tree.fill_frac": t["fill"],
            "draft_tree.depth_per_step": t["depth"],
            "verify.step_ms": t["step_ms"],
            "verify.verify_tree_ms_per_step": t["verify_tree_ms"],
            "verify.paths_per_step": t["paths"],
            "verify.accepted_per_step": t["accepted"],
            "verify.useful_node_frac": self.totals["accepted"] / max(self.totals["nodes"], 1),
            "verify.loop_self_ms_per_step": t["step_ms"] - covered,
            "verify.engine_ms_per_step": t["step_ms"] - t["injected_ms"],
        }

    def write(self, path, origin: float) -> None:
        """Write every span as one JSON line, times in microseconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, episode, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "episode": episode,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                }) + "\n")
