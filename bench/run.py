"""Seeded closed-loop benchmark of the specdec engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process (no threads) decodes a seeded stream of episodes
through the engine's public API and waits for each before starting the
next.  Each episode is decoded greedily with ``ar_decode``, then with
``run_episode`` once per policy in the workload's ``r_values``, then
greedily again.  The first ``episodes`` episodes (the workload config's
count) always run and fix the deterministic outputs: ``tokens_per_pass``,
``success_rate``, the report built with ``aggregate``/``render_json``, and
the sha256 digests of the emitted tokens and of that report.  After them,
episodes keep coming until ``--seconds`` have passed, and every episode
counts toward the timings.

The seed sets the verifier and draft seeds and the episode ids; the engine
sees only the generated states.  Workloads live in ``bench/workloads/`` as
engine config files, parsed with ``specdec.parse_config``:

* ``tree-default``: the shipping tree (top_k 8, depth 4, 50 nodes), 70-token
  episodes, no injected latency.  Draft proposals and tree ranking dominate.
* ``chain-long``: a 4-node chain, 1,050-token episodes.  Tree ranking is
  trivial; costs that grow with the committed prefix dominate.
* ``latency-default``: the shipping tree with 20 ms per verifier round and
  1 ms per draft round injected, the regime where speculation pays off.

Every episode is checked: strict tokens equal ``ar_decode`` from the same
state; every relaxed token is in ``[0, V)`` and within the per-dimension
``r`` of its ``VerifyOutcome.reference``.  Traced runs also validate every
tree against the workload's budget and depth and replay ``verify_tree`` on
each captured round.  An exception or a failed check marks the episode
failed without stopping the run; ``ok_frac`` is the share that passed.

Wall times.  On a shared host, machine speed drifts up to 2x between
runs and changes within a second, so raw times cannot be gated.  After
every batched verifier round of an untraced decode, and every
``NEXT_PER_SLICE`` tokens of a greedy one, the run times a slice of
``SLICE_OPS`` operations of the calibration kernel (``calibrate.py``, which
imports nothing from the engine, so no engine change can move it); the
slices are taken out of every measured interval.  Time spent computing is
rescaled to a reference host on which one kernel operation takes
``REF_OP_US`` microseconds, by the median of the ``WINDOW`` nearest slices
on each side; latency injected by ``TimedVerifier``/``TimedDraft`` does not
depend on the host and is kept as it is.  Units ``ref_ms`` and ``1/ref_s``
mark times on that reference host.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``tokens_per_s`` is committed speculative tokens per second (median over
episodes) and ``ar_tokens_per_s`` the greedy throughput on the same
episodes (median over greedy decodes).  ``step_ms_p50`` is the median time
between consecutive batched verifier rounds, ``frame_ms_p50`` between
completions of 7-token action frames.  Their 90th percentiles are noisier,
so they are reported, ungated, by the traced run.  ``speedup_measured`` is
greedy over speculative time per token on the same episodes (ratio of the
medians), and ``speedup_efficiency`` divides it by ``analytic_speedup``
under the workload's latency model.  A workload with no injected latency
has no latency model; the verifier round is then taken as the only cost, so
the analytic figure is the tokens per pass, and there
``speedup_efficiency`` restates ``speedup_measured`` over
``tokens_per_pass``.  ``setup_s`` is the median CPU time of several
fresh-interpreter set-ups (``setup_probe.py``) spread over the run, in
plain seconds.

``--trace 1`` wraps the models (``spans.py``) and prints the per-layer
metrics.  Every episode is decoded both traced and untraced; the untraced
decodes give absolute speculative tokens/s, the tracing overhead and the
90th-percentile step and frame times.  Spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from calibrate import kernel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = BENCH / "workloads"
OUT = BENCH / "out"
SETUP_REPEATS = 21
FRAME = 7
# The reference host: one calibration kernel operation takes this long on it.
REF_OP_US = 120.0
SLICE_OPS = 4  # calibration operations after each verifier round
NEXT_PER_SLICE = 8  # greedy decoding: one slice after this many ``next`` calls
WINDOW = 10  # a stretch between slices is rescaled by the median of the slices this near


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_engine():
    """Import specdec from this checkout's sources, never from an installed copy."""
    if not (SRC / "specdec" / "__init__.py").is_file():
        fail(f"no engine sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specdec

    if Path(specdec.__file__).resolve().parent != SRC / "specdec":
        fail(f"imported specdec from {specdec.__file__}, not from {SRC}")
    return specdec


def probe_setup(config_path: Path, seed: int) -> dict[str, float]:
    """Seconds one fresh-interpreter set-up of the workload took, by part."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(config_path), str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return quantiles(values, n=100, method="inclusive")[q - 1]


def check_episode(tokens, outcomes, policy, ar_tokens, config) -> list[str]:
    """Output checks for one decode; returns a description of each failure."""
    problems = []
    if len(tokens) != config.target_length:
        problems.append(f"{len(tokens)} tokens, expected {config.target_length}")
    if policy.mode == "strict" and tokens != ar_tokens:
        problems.append("strict output differs from ar_decode")
    position = 0
    for outcome in outcomes:
        if not len(outcome.emitted) == len(outcome.reference) == outcome.accepted + 1:
            problems.append(f"position {position}: malformed outcome")
        for token, ref in zip(outcome.emitted, outcome.reference):
            bound = policy.effective_r(position % FRAME)
            if not 0 <= token < config.vocab_size or abs(token - ref) > bound:
                problems.append(f"position {position}: token {token}, reference {ref}, r {bound}")
            position += 1
    return problems


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref[5:]


def provenance() -> dict:
    """Machine and source facts printed with every run; none of them is gated."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": read_commit(),
        "src_specdec_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "specdec").glob("*.py"))
        ),
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Clock:
    """Hooks on the untraced models: injected latency, round ends, calibration.

    Every ``next``/``batch`` of a ``TimedVerifier`` and every
    ``propose``/``propose_many`` of a ``TimedDraft`` costs its fixed latency.
    After each batched round, and after every ``NEXT_PER_SLICE`` greedy
    ``next`` calls, the clock times a calibration slice, so that the kernel
    samples the host at the same moments as the engine.
    """

    def __init__(self, verify_latency: float, draft_latency: float):
        self.verify_latency = verify_latency
        self.draft_latency = draft_latency
        self.reset()

    def reset(self) -> None:
        self.injected = 0.0
        self.nexts = 0
        self.sliced = 0.0  # seconds spent in calibration slices
        self.op_s: list[float] = []  # seconds per kernel operation, by slice
        # (time with earlier slices taken out, injected latency so far) where each slice began
        self.marks: list[tuple[float, float]] = []

    def on_next(self, t0, t1, *call) -> None:
        self.injected += self.verify_latency
        self.nexts += 1
        if self.nexts % NEXT_PER_SLICE == 0:
            self.slice(t1)

    def on_batch(self, t0, t1, *call) -> None:
        self.injected += self.verify_latency
        self.slice(t1)

    def on_draft(self, *call) -> None:
        self.injected += self.draft_latency

    def slice(self, at: float) -> None:
        self.marks.append((at - self.sliced, self.injected))
        start = perf_counter()
        kernel(SLICE_OPS)
        elapsed = perf_counter() - start
        self.sliced += elapsed
        self.op_s.append(elapsed / SLICE_OPS)

    def reference(self, start: float, end: float) -> list[float]:
        """Seconds on the reference host from ``start`` to each slice, and to ``end``.

        Each stretch between slices keeps the latency injected within it and
        has its computing time rescaled by the median of the slices within
        ``WINDOW`` of it; the slices themselves are taken out.
        """
        if not self.op_s:
            raise RuntimeError("no calibration slice was timed")
        clock, times = 0.0, []
        last_at, last_injected = start, 0.0
        for i, (at, injected) in enumerate(self.marks + [(end - self.sliced, self.injected)]):
            k = min(i, len(self.op_s) - 1)
            scale = REF_OP_US * 1e-6 / median(self.op_s[max(0, k - WINDOW):k + WINDOW + 1])
            lag, waited = at - last_at, injected - last_injected
            clock += waited + (lag - waited) * scale
            times.append(clock)
            last_at, last_injected = at, injected
        return times


class Episode:
    """Timings and counts of one episode's decodes, kept if every check passed.

    Times are in seconds on the reference host (``Clock.reference``), except
    ``sd_s``, which holds raw seconds for the tracing overhead.
    """

    def __init__(self):
        self.ar: list[float] = []  # greedy decodes
        self.sd = 0.0  # untraced speculative decodes, summed over policies
        self.sd_s = {False: 0.0, True: 0.0}  # raw speculative time, untraced and traced
        self.step_s: list[float] = []  # between consecutive verifier rounds
        self.frame_s: list[float] = []  # between completions of 7-token frames
        self.op_s: list[float] = []  # calibration slices
        self.steps = self.emitted = 0
        self.stats = []
        self.tokens = []


def frame_rounds(outcomes, length: int) -> list[int]:
    """For each 7-token frame, the index of the verifier round that completed it."""
    rounds, done, frame = [], 0, FRAME
    for k, outcome in enumerate(outcomes):
        done += len(outcome.emitted)
        while done >= frame and frame <= length:
            rounds.append(k)
            frame += FRAME
    return rounds


def build_traced_models(specdec, config, tracer):
    """The workload's models, built as ``specdec.harness.build_models`` builds
    them but with the tracer's counting verifier under the draft, so that
    the draft's own scorings are counted too."""
    verifier = tracer.counter(
        specdec.HashVerifier(vocab_size=config.vocab_size, seed=config.seed))
    draft = specdec.make_noisy_draft(
        verifier,
        agreement_p=config.agreement_p,
        noise_sigma=config.noise_sigma,
        seed=config.seed + 1,
    )
    return verifier, draft


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    specdec = import_engine()
    from specdec.harness import build_models, policy_for_r

    import spans

    config_path = WORKLOADS / f"{args.workload}.json"
    if not config_path.is_file():
        fail(f"unknown workload {args.workload!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    config = specdec.parse_config(str(config_path), {"seed": args.seed})
    params = config.tree_params()
    cost = config.cost_model()
    verify_latency = cost.verify_latency if cost else 0.0
    draft_latency = cost.draft_latency if cost else 0.0
    length = config.target_length
    policies = [policy_for_r(r, config.per_dimension_r) for r in config.r_values]

    def with_latency(verifier, draft):
        if cost is None:
            return verifier, draft
        return (specdec.TimedVerifier(verifier, verify_latency),
                specdec.TimedDraft(draft, draft_latency))

    clock = Clock(verify_latency, draft_latency)
    plain_verifier, plain_draft = with_latency(*build_models(config))
    clocked_verifier = spans.Wrapper(
        plain_verifier, {"next": clock.on_next, "batch": clock.on_batch})
    clocked_draft = spans.Wrapper(
        plain_draft, {"propose": clock.on_draft, "propose_many": clock.on_draft})
    if args.trace:
        tracer = spans.Tracer(params.max_nodes, params.max_depth, verify_latency, draft_latency)
        traced_verifier, traced_draft = tracer.wrap(
            *with_latency(*build_traced_models(specdec, config, tracer)))

    def decode(verifier, draft, policy, state, index):
        t0 = perf_counter()
        stats = specdec.run_episode(
            verifier, draft, params, policy, state, length, config.success_tolerance,
            episode=index,
        )
        t1 = perf_counter()
        tokens = tuple(t for o in stats.outcomes for t in o.emitted)[:length]
        return stats, tokens, t0, t1

    kept: list[Episode] = []
    attempted = failed = 0
    # Set-up probes are spread over the run so that they sample the same
    # machine state as the episodes; the time they take extends the run.
    probes = []
    origin = perf_counter()
    deadline = origin + args.seconds
    index = 0
    while index < config.episodes or perf_counter() < deadline:
        if len(probes) * args.seconds <= (perf_counter() - origin) * SETUP_REPEATS:
            t0 = perf_counter()
            probes.append(probe_setup(config_path, args.seed))
            deadline += perf_counter() - t0
        state = specdec.PrefixState(
            prompt_id=f"s{args.seed}-ep{index:06d}", observation_id=f"s{args.seed}-obs{index:06d}"
        )
        episode, problems = Episode(), []

        def greedy():
            clock.reset()
            t0 = perf_counter()
            tokens = specdec.ar_decode(state, clocked_verifier, length)
            episode.ar.append(clock.reference(t0, perf_counter())[-1])
            episode.op_s += clock.op_s
            return tokens

        try:
            # Greedy decoding runs first and last, so that it samples the same
            # stretch of machine time as the speculative decodes.
            ar_tokens = greedy()
            if args.trace and specdec.ar_decode(state, traced_verifier, length) != ar_tokens:
                problems.append("traced ar_decode differs")
            for j, policy in enumerate(policies):
                # Traced runs decode each episode both ways, alternating which goes first.
                modes = ((True, False) if (index + j) % 2 == 0 else (False, True)) \
                    if args.trace else (False,)
                decoded = set()
                for traced in modes:
                    if traced:
                        tracer.begin()
                        stats, tokens, t0, t1 = decode(
                            traced_verifier, traced_draft, policy, state, index)
                        problems += tracer.end(index, t0, t1, stats.outcomes, policy)
                    else:
                        clock.reset()
                        stats, tokens, t0, t1 = decode(
                            clocked_verifier, clocked_draft, policy, state, index)
                        # Every slice follows a verifier round: the times are at round ends.
                        times = clock.reference(t0, t1)
                        rounds = [0.0] + times[:-1]
                        frames = frame_rounds(stats.outcomes, length)
                        done = [0.0] + [rounds[k + 1] for k in frames]
                        episode.sd += times[-1]
                        episode.step_s += [b - a for a, b in zip(rounds, rounds[1:])]
                        episode.frame_s += [b - a for a, b in zip(done, done[1:])]
                        episode.op_s += clock.op_s
                        t1 -= clock.sliced
                        episode.steps += len(stats.outcomes)
                        episode.emitted += sum(len(o.emitted) for o in stats.outcomes)
                    episode.sd_s[traced] += t1 - t0
                    problems += check_episode(tokens, stats.outcomes, policy, ar_tokens, config)
                    decoded.add(tokens)
                if len(decoded) != 1:
                    problems.append("traced and untraced decodes differ")
                episode.stats.append(stats)
                episode.tokens.append(tokens)
            if greedy() != ar_tokens:
                problems.append("ar_decode is not deterministic")
        except Exception:  # a crashing episode is a failure, not the end of the run
            traceback.print_exc(file=sys.stderr)
            problems.append("exception")
        attempted += 1
        if problems:
            failed += 1
            print(f"episode {index} failed: {'; '.join(problems[:5])}", file=sys.stderr)
        else:
            if len(kept) >= config.episodes:  # only the first episodes fix the outputs
                episode.stats, episode.tokens = [], []
            kept.append(episode)
        index += 1
    measured_s = perf_counter() - origin
    while len(probes) < SETUP_REPEATS:
        probes.append(probe_setup(config_path, args.seed))
    setup = {key: median(p[key] for p in probes) for key in probes[0]}

    fixed = kept[: config.episodes]
    fixed_stats = [stats for e in fixed for stats in e.stats]
    fixed_tokens = [tokens for e in fixed for tokens in e.tokens]
    correct = failed == 0 and len(fixed_stats) == config.episodes * len(policies)
    report_ms = 0.0
    digests = None
    if correct:
        renders, times = set(), []
        for _ in range(5):
            t0 = perf_counter()
            report = specdec.aggregate(fixed_stats, config)
            renders.add(specdec.render_json(report))
            times.append(perf_counter() - t0)
        report_ms = median(times) * 1e3
        try:
            specdec.validate_report(report)
        except ValueError as exc:
            print(f"report identity failed: {exc}", file=sys.stderr)
            correct = False
        if len(renders) != 1:
            print("report rendering is not byte-stable", file=sys.stderr)
            correct = False
        token_text = "".join(
            f"{stats.episode}:{stats.r}:{','.join(map(str, tokens))}\n"
            for stats, tokens in zip(fixed_stats, fixed_tokens)
        )
        digests = {"tokens": sha256(token_text), "report": sha256(renders.pop())}

    # A changed digest is a behaviour change, which a change may make if it
    # says so; it is reported, and it does not make the run incorrect.
    reference = json.loads((BENCH / "digests.json").read_text()).get(args.workload, {})
    expected = reference.get(str(args.seed))
    verdict = "no reference" if expected is None else (
        "match" if expected == digests else "MISMATCH")
    op_s = [t for e in kept for t in e.op_s]
    facts = {**provenance(), "calibration_op_us": median(op_s) * 1e6 if op_s else None}
    print(f"provenance: {json.dumps(facts, sort_keys=True)}")
    print(f"digest {args.workload} seed={args.seed}: {verdict} {json.dumps(digests)}")
    print(f"episodes: {attempted} attempted, {failed} failed, {measured_s:.1f} s measured")

    if not kept:
        fail("no episode passed its checks")
    OUT.mkdir(exist_ok=True)
    spec_tokens = length * len(policies)
    ar_s = [t for e in kept for t in e.ar]
    sd_s = [e.sd for e in kept]
    step_s = [t for e in kept for t in e.step_s]
    frame_s = [t for e in kept for t in e.frame_s]
    if args.trace:
        metrics = tracer.summary()
        metrics.update({
            "verify.step_ms_p90": percentile(step_s, 90) * 1e3,
            "verify.frame_ms_p90": percentile(frame_s, 90) * 1e3,
            "models.build_ms": setup["build_s"] * 1e3,
            "config.parse_ms": setup["parse_s"] * 1e3,
            "report.aggregate_render_ms": report_ms,
            "trace.tokens_per_s_traced": median(spec_tokens / e.sd_s[True] for e in kept),
            "trace.tokens_per_s_untraced": median(spec_tokens / e.sd_s[False] for e in kept),
            "trace.overhead_frac": median(e.sd_s[True] / e.sd_s[False] for e in kept) - 1.0,
        })
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", origin)
    else:
        speedup = median(ar_s) * len(policies) / median(sd_s)
        tokens_per_pass = sum(e.emitted for e in kept) / sum(e.steps for e in kept)
        analytic = specdec.analytic_speedup(cost, params.max_depth, tokens_per_pass) \
            if cost else tokens_per_pass
        metrics = {
            "setup_s": setup["cpu_s"],
            "tokens_per_s": median(spec_tokens / s for s in sd_s),
            "ar_tokens_per_s": median(length / s for s in ar_s),
            "step_ms_p50": median(step_s) * 1e3,
            "frame_ms_p50": median(frame_s) * 1e3,
            "speedup_measured": speedup,
            "speedup_efficiency": speedup / analytic,
            "tokens_per_pass": sum(len(o.emitted) for s in fixed_stats for o in s.outcomes)
            / sum(s.steps for s in fixed_stats),
            "success_rate": sum(s.success for s in fixed_stats) / len(fixed_stats),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(metrics) != set(declared):
        fail(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    label = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (OUT / f"BENCH_{label}.json").write_text(json.dumps({
        **result, "provenance": facts, "digests": digests, "digest_verdict": verdict,
    }, indent=2) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
