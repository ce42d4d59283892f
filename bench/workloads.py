"""Seeded inputs, operations and output checks for the four workloads.

Every operation calls the public ``eqdesign`` API through a module attribute
looked up at call time, so the tracer's wrappers see it.  Each workload's
``plan_*`` function returns one pass: the list of operations the closed loop
repeats.  ``check`` functions are pure in (operation, output) and return
``None`` for a correct output or a one-line reason for a wrong one; they run
after the timed loop.

Random instances follow the recipe of ``tests/conftest.py`` (copied here, not
imported): ``dirichlet(0.9)`` transitions and initial distribution, and
stage strategies drawn from ``dirichlet(0.7)`` until ``check_scce`` passes
with ``gamma_cce >= 1e-4``.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import eqdesign as eq

import oracle

eqio = importlib.import_module("eqdesign.io")

# Same base seed as the test suite, so pinned instances match ROADMAP.md.
BASE_SEED = 20260822
# Post-solve margin slip allowed below a requested slack.
GAP_SLIP = 1e-6
# Objectives must agree with recomputed costs and with HiGHS to this much.
OBJ_TOL = 1e-6
# Reward bound of every Markov design and witness.
BOUND = 2.0

# Per-operation deadlines, seconds.  Each one sits more than twice as far as
# the host's speed drift from every operation's latency, so the same
# operations fail on every run.  The markov-design one lies between the pinned
# 3,3,(3,3) social and egalitarian designs (about 1.6 s) and that rung's
# offline, online and CE designs (8 s and more); see README.md.
DEADLINE = {
    "markov-design": 3.5,
    "nfg-design": 1.0,
    "markov-closed-form": 10.0,
    "cli": 30.0,
}

# markov-design ladder: (states, horizon, action counts, instances per pass),
# each instance drawn from the workload seed.
MARKOV_RUNGS = (
    (2, 2, (2, 2), 12),
    (2, 3, (2, 2), 2),
    (3, 2, (2, 2), 2),
    (2, 2, (2, 3), 2),
)
# Pinned rungs, the same at every seed, generated by the ROADMAP.md recipe
# (``rng = make_rng(f"b{S}{H}{A}")``).  3,3,(2,2) and 2,2,(3,3) hold the
# operations around p90, so pinning them keeps the tail comparable across
# seeds; 3,3,(3,3) and 4,4,(3,3) are the ROADMAP table's rows.  The last field
# restricts a rung to one CCE cost (4,4,(3,3) runs only its offline design).
PINNED_RUNGS = (
    (3, 3, (2, 2), None),
    (2, 2, (3, 3), None),
    (3, 3, (3, 3), None),
    (4, 4, (3, 3), "offline"),
)

# markov-closed-form sizes: (states, horizon, action counts).
CLOSED_FORM_SIZES = (
    (4, 4, (3, 3)),
    (8, 6, (4, 4)),
    (12, 8, (4, 4)),
    (16, 10, (4, 4)),
    (6, 4, (3, 3, 3)),
    (8, 6, (3, 3, 3)),
)


@dataclass
class Op:
    """One benchmark operation: a timed ``run`` and an untimed ``check``."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # Rebuilds the design program for the HiGHS oracle (LP operations only).
    program: Optional[Callable[[], object]] = None
    info: dict = field(default_factory=dict)


def rng_for(tag: str, seed: Optional[int] = None) -> np.random.Generator:
    """Generator keyed by a tag, and by the workload seed unless pinned."""
    key = tag if seed is None else f"{seed}/{tag}"
    return np.random.default_rng([BASE_SEED, zlib.crc32(key.encode())])


# ---------------------------------------------------------------- instances


def installable_stage(rng, counts) -> np.ndarray:
    while True:
        probs = rng.dirichlet(np.full(int(np.prod(counts)), 0.7)).reshape(counts)
        sigma = eq.JointMixedStrategy(probs)
        if eq.check_scce(sigma).installable and eq.gamma_cce(sigma).value >= 1e-4:
            return probs


def markov_instance(rng, num_s: int, horizon: int, counts: tuple):
    num_a = int(np.prod(counts))
    trans = rng.dirichlet(
        np.full(num_s, 0.9), size=(horizon, num_s, num_a)
    ).reshape((horizon, num_s) + counts + (num_s,))
    init = rng.dirichlet(np.full(num_s, 0.9))
    skeleton = eq.MarkovGameSkeleton(
        action_sets=tuple(tuple(f"a{k}" for k in range(c)) for c in counts),
        states=tuple(f"s{k}" for k in range(num_s)),
        horizon=horizon,
        transitions=trans,
        initial_dist=init,
    )
    stages = np.zeros((horizon, num_s) + counts)
    for h in range(horizon):
        for s in range(num_s):
            stages[h, s] = installable_stage(rng, counts)
    return skeleton, eq.MarkovPolicy(stages=stages)


def min_gamma(policy, concept) -> float:
    """Smallest per-stage unit-bound margin; 0 when some stage fails."""
    gfun = eq.gamma_ce if concept == eq.Concept.CE else eq.gamma_cce
    return min(
        gfun(policy.stage(h, s)).value
        for h in range(policy.horizon)
        for s in range(policy.num_states)
    )


def dev_class(concept):
    if concept == eq.Concept.CE:
        return eq.DeviationClass.NEVER_RECOMMENDED
    return eq.DeviationClass.UNRESTRICTED


def close(a: float, b: float, tol: float = OBJ_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ------------------------------------------------------------ design checks


def check_design(
    res,
    *,
    expect_optimal: bool,
    bound: float,
    required: float,
    margin: float,
    gap_of,
    cost_of,
    highs,
) -> Optional[str]:
    """Checks shared by Markov and normal-form design outputs.

    ``gap_of(result)`` measures the design's strictness with the verifier,
    ``cost_of(result)`` recomputes its cost from tensors, ``highs()``
    returns the HiGHS ``(status, objective)`` for the same program, and
    ``margin`` is the max-gap lower bound a witness guarantees (``None`` when
    the operation is not max-gap).
    """
    highs_status, highs_obj = highs()
    status = res.status.value
    if status != highs_status:
        return f"status {status}, HiGHS {highs_status}"
    if not expect_optimal:
        return None if status == "infeasible" else f"status {status}, expected infeasible"
    if status != "optimal":
        return f"status {status}, expected optimal"
    tensor = res.reward.rewards if res.reward is not None else None
    if tensor is None or not np.all(np.isfinite(tensor)):
        return "optimal result without a finite reward"
    if float(np.max(np.abs(tensor))) > bound:
        return f"reward {float(np.max(np.abs(tensor)))} exceeds bound {bound}"
    if margin is not None:
        if res.achieved_slack is None or res.achieved_slack < margin - GAP_SLIP:
            return f"max-gap slack {res.achieved_slack} below witness {margin}"
        required = res.achieved_slack
        if not close(res.objective, -res.achieved_slack):
            return f"objective {res.objective} != -slack {res.achieved_slack}"
    else:
        recomputed = cost_of(res)
        if not close(res.objective, recomputed):
            return f"objective {res.objective} != evaluate_cost {recomputed}"
    gap = gap_of(res)
    if gap < required - GAP_SLIP:
        return f"verifier gap {gap} below required {required}"
    if not close(res.objective, highs_obj):
        return f"objective {res.objective} != HiGHS {highs_obj}"
    return None


# ------------------------------------------------------------ markov-design


def _markov_design_ops(tag, skeleton, policy, only=None) -> list[Op]:
    ops = []
    specs = [
        (eq.Concept.CCE, kind, False) for kind in eq.CostKind
    ] + [
        (eq.Concept.CCE, eq.CostKind.OFFLINE, True),
        (eq.Concept.CE, eq.CostKind.ONLINE, False),
    ]
    if only is not None:
        specs = [(eq.Concept.CCE, eq.CostKind(only), False)]
    for concept, kind, max_gap in specs:
        # The Markov witness installs the policy with per-stage margin
        # (bound / 2) * gamma, so 0.9 of it is a certified-feasible slack
        # (and slack 0 is feasible with zero rewards).
        margin = 0.5 * BOUND * min_gamma(policy, concept)
        slack = min(0.4, 0.9 * margin)
        cost = eq.CostSpec(kind)
        config = eq.DesignConfig(slack=slack, bound=BOUND, max_gap=max_gap)
        name = f"{tag}/{concept.value}/{'max-gap' if max_gap else kind.value}"
        ops.append(
            _design_op(
                name,
                lambda c=concept, k=cost, g=config: eq.design(
                    skeleton, policy, c, k, g
                ),
                lambda c=concept, k=cost, g=config: eq.build_mg_lp(
                    skeleton, policy, c, k, g
                )[0],
                expect_optimal=True,
                bound=BOUND,
                required=slack,
                margin=margin if max_gap else None,
                gap_of=lambda r, c=concept: eq.check_strict(
                    skeleton, r.reward, policy, c, dev_class=dev_class(c)
                ).min_gap,
                cost_of=lambda r, k=cost: eq.evaluate_cost(
                    skeleton, policy, k, r.reward
                ),
                info={"rung": tag.split("#")[0]},
            )
        )
    return ops


def _design_op(name, run, program, info, **expect) -> Op:
    op = Op(name=name, run=run, check=None, program=program, info=info)

    def check(res):
        return check_design(res, highs=lambda: highs_status(op), **expect)

    op.check = check
    return op


def highs_status(op: Op) -> tuple[str, Optional[float]]:
    """HiGHS status and objective for the operation's program, solved once
    per operation and recorded in ``op.info`` for the per-operation report."""
    if "highs_status" not in op.info:
        program = op.program()
        op.info.update(oracle.solve_highs(program))
        op.info["vars"] = program.num_vars
        op.info["rows"] = len(program.constraints)
    return op.info["highs_status"], op.info["highs_objective"]


def plan_markov_design(seed: int, workdir: str, smoke: bool = False) -> list[Op]:
    rungs = ((2, 2, (2, 2), 1),) if smoke else MARKOV_RUNGS
    ops: list[Op] = []
    for num_s, horizon, counts, copies in rungs:
        for k in range(copies):
            tag = f"{num_s},{horizon},{counts}#{k}"
            rng = rng_for(f"markov-design/{tag}", seed)
            ops += _markov_design_ops(tag, *markov_instance(rng, num_s, horizon, counts))
    if not smoke:
        for num_s, horizon, counts, only in PINNED_RUNGS:
            rng = rng_for(f"b{num_s}{horizon}{counts}")
            tag = f"{num_s},{horizon},{counts}#pinned"
            ops += _markov_design_ops(
                tag, *markov_instance(rng, num_s, horizon, counts), only=only
            )
        # Shuffled, so the operations around p50 and p90 are spread over the
        # whole pass and their latencies average the host's speed drift
        # instead of sampling one stretch of it.
        order = rng_for("markov-design/order", seed).permutation(len(ops))
        ops = [ops[i] for i in order]
    return ops


# --------------------------------------------------------------- nfg-design


def _subset_uniform(rng, shape) -> np.ndarray:
    cells = int(np.prod(shape))
    size = int(rng.integers(1, cells + 1))
    probs = np.zeros(cells)
    probs[rng.choice(cells, size=size, replace=False)] = 1.0 / size
    return probs.reshape(shape)


def _margin_ok(sigma) -> bool:
    """Grid screen of the test suite: installable targets keep a working
    margin of at least 1e-3 so verdicts are not tolerance races."""
    for gfun in (eq.gamma_ce, eq.gamma_cce):
        g = gfun(sigma)
        if g.installable and math.isfinite(g.value) and g.value < 1e-3:
            return False
    return True


def _nfg_targets(rng, smoke: bool) -> list[tuple[str, np.ndarray, bool]]:
    """(tag, probs, is_product) triples over 2x2, 3x2 and 3x3 grids."""
    found = []
    per_shape = {"subset": 1, "full": 1, "sparse": 0, "pure": 1, "mixed": 0}
    if not smoke:
        per_shape = {"subset": 8, "full": 4, "sparse": 4, "pure": 2, "mixed": 2}
    for shape in ((2, 2), (3, 2), (3, 3)):
        cells = int(np.prod(shape))
        made = dict.fromkeys(per_shape, 0)
        while made != per_shape:
            kind = next(k for k in per_shape if made[k] < per_shape[k])
            if kind == "subset":
                probs = _subset_uniform(rng, shape)
            elif kind == "full":
                probs = rng.dirichlet(np.full(cells, 0.7)).reshape(shape)
            elif kind == "sparse":
                size = int(rng.integers(1, cells))
                flat = np.zeros(cells)
                flat[rng.choice(cells, size=size, replace=False)] = rng.dirichlet(
                    np.full(size, 0.7)
                )
                probs = flat.reshape(shape)
            else:
                marg = [
                    np.eye(c)[rng.integers(c)] if kind == "pure"
                    else rng.dirichlet(np.full(c, 1.0))
                    for c in shape
                ]
                probs = np.multiply.outer(*marg)
            if not _margin_ok(eq.JointMixedStrategy(probs)):
                continue
            tag = f"{shape[0]}x{shape[1]}-{kind}{made[kind]}"
            found.append((tag, probs, kind in ("pure", "mixed")))
            made[kind] += 1
    return found


def plan_nfg_design(seed: int, workdir: str, smoke: bool = False) -> list[Op]:
    rng = rng_for("nfg-design", seed)
    ops: list[Op] = []
    for tag, probs, product in _nfg_targets(rng, smoke):
        sigma = eq.JointMixedStrategy(probs)
        game = eq.NormalFormGame(
            action_sets=tuple(
                tuple(f"a{k}" for k in range(c)) for c in sigma.action_counts
            ),
            utility=rng.uniform(-1.0, 1.0, (2,) + sigma.action_counts),
        )
        skeleton = eq.nfg_as_markov(game)
        policy = eq.strategy_as_policy(sigma)
        concepts = [eq.Concept.CE, eq.Concept.CCE]
        if product:
            concepts.append(eq.Concept.NE)
        for concept in concepts:
            installable = eq.check(sigma, concept).installable
            gfun = eq.gamma_ce if concept == eq.Concept.CE else eq.gamma_cce
            if installable:
                gamma = gfun(sigma).value if concept != eq.Concept.NE else math.inf
                # Criterion 1's slack rule; a pure target's margin reaches 2B.
                slack = gamma / 2.0 if math.isfinite(gamma) else 1.0
                bound = 1.0
                margin = bound * gamma if math.isfinite(gamma) else 2.0 * bound
            else:
                slack, bound, margin = 1e-6, 1e3, 0.0
            for kind, max_gap in [(k, False) for k in eq.CostKind] + [
                (eq.CostKind.OFFLINE, True)
            ]:
                cost = eq.CostSpec(kind)
                config = eq.DesignConfig(slack=slack, bound=bound, max_gap=max_gap)
                name = f"{tag}/{concept.value}/{'max-gap' if max_gap else kind.value}"
                ops.append(
                    _design_op(
                        name,
                        lambda s=sigma, g=game, c=concept, k=cost, f=config: eq.design(
                            g, s, c, k, f
                        ),
                        lambda s=sigma, g=game, c=concept, k=cost, f=config: eq.build_nfg_lp(
                            s, c, k, f, baseline=g.utility
                        )[0],
                        expect_optimal=installable or max_gap,
                        bound=bound,
                        required=slack,
                        margin=margin if max_gap else None,
                        gap_of=lambda r, s=sigma, c=concept: eq.nfg_oracle(
                            r.utility, s, c
                        ).min_gap,
                        cost_of=lambda r, k=cost, sk=skeleton, p=policy: eq.evaluate_cost(
                            sk, p, k, r.reward
                        ),
                        info={"rung": tag.split("-")[0]},
                    )
                )
    return ops


# ------------------------------------------------------- markov-closed-form


def _broken_policy(rng, policy) -> eq.MarkovPolicy:
    """Copy with one stage replaced by a mixed product strategy, which no
    concept can install: every supported conditional is the same marginal."""
    stages = np.array(policy.stages)
    counts = policy.action_counts
    h = int(rng.integers(policy.horizon))
    s = int(rng.integers(policy.num_states))
    marg = [rng.dirichlet(np.full(c, 1.0)) for c in counts]
    prod = marg[0]
    for m in marg[1:]:
        prod = np.multiply.outer(prod, m)
    stages[h, s] = prod
    return eq.MarkovPolicy(stages=stages)


def game_doc(skeleton) -> dict:
    horizon, num_s = skeleton.horizon, skeleton.num_states
    return {
        "actions": [list(acts) for acts in skeleton.action_sets],
        "states": list(skeleton.states),
        "horizon": horizon,
        "transitions": skeleton.transitions.reshape(
            horizon, num_s, -1, num_s
        ).tolist(),
        "initial_dist": skeleton.initial_dist.tolist(),
    }


def policy_doc(policy) -> dict:
    return {
        "stages": policy.stages.reshape(
            policy.horizon, policy.num_states, -1
        ).tolist()
    }


def write_instance(workdir, tag, skeleton, policy, rng) -> dict:
    """Write game, targets and reward documents; return their paths and the
    in-memory objects they encode."""
    broken = _broken_policy(rng, policy)
    witness_ce = eq.markov_witness(policy, skeleton, BOUND, eq.Concept.CE)
    shape = (skeleton.num_players, skeleton.horizon, skeleton.num_states)
    noise = eq.RewardFunction(
        rewards=rng.uniform(-BOUND, BOUND, shape + skeleton.action_counts),
        bound=BOUND,
    )
    paths = {
        key: os.path.join(workdir, f"{tag}.{key}.json")
        for key in ("game", "target", "broken", "witness", "noise")
    }
    eqio.dump_json(game_doc(skeleton), paths["game"])
    eqio.dump_json(policy_doc(policy), paths["target"])
    eqio.dump_json(policy_doc(broken), paths["broken"])
    eqio.dump_json(eqio.reward_to_doc(witness_ce), paths["witness"])
    eqio.dump_json(eqio.reward_to_doc(noise), paths["noise"])
    return {
        "paths": paths,
        "skeleton": skeleton,
        "policy": policy,
        "broken": broken,
        "witness": witness_ce,
        "noise": noise,
    }


def _load(paths, target="target"):
    skeleton = eqio.load_game(eqio.load_json(paths["game"]), where=paths["game"])
    policy = eqio.load_policy(
        eqio.load_json(paths[target]), skeleton, where=paths[target]
    )
    return skeleton, policy


def _closed_form_ops(tag, inst, workdir) -> list[Op]:
    paths = inst["paths"]
    sk, pol = inst["skeleton"], inst["policy"]
    cce = eq.Concept.CCE
    ce = eq.Concept.CE
    ops = []

    def checker(expected: bool):
        def check(verdict):
            if verdict.installable != expected:
                return f"installable {verdict.installable}, expected {expected}"
            return None

        return check

    def run_check(target, concept):
        def run():
            _, policy = _load(paths, target)
            return eq.check_markov(policy, concept)

        return run

    ops.append(Op(f"{tag}/check-ce", run_check("target", ce), checker(True)))
    ops.append(Op(f"{tag}/check-cce-broken", run_check("broken", cce), checker(False)))

    witness_gap = eq.check_strict(sk, eq.markov_witness(pol, sk, BOUND, cce), pol, cce)
    witness_floor = 0.5 * BOUND * min_gamma(pol, cce)
    epsilon = 0.5 * (BOUND / sk.horizon) * min_gamma(pol, cce)
    eps_cfg = eq.EpsilonConfig(epsilon=epsilon, bound=BOUND)
    eps_gap = eq.check_strict(
        sk, eq.epsilon_markov_witness(pol, sk, cce, eps_cfg), pol, cce
    )

    def run_witness(out_key, build):
        out = os.path.join(workdir, f"{tag}.{out_key}.out.json")

        def run():
            skeleton, policy = _load(paths)
            reward = build(skeleton, policy)
            eqio.dump_json(eqio.reward_to_doc(reward), out)
            return reward

        return run

    def witness_checker(expected, floor):
        def check(reward):
            if float(np.max(np.abs(reward.rewards))) > BOUND:
                return f"reward exceeds bound {BOUND}"
            gap = eq.check_strict(sk, reward, pol, cce)
            if abs(gap.min_gap - expected.min_gap) > 1e-9:
                return f"witness gap {gap.min_gap}, in-process {expected.min_gap}"
            if gap.min_gap < floor - 1e-9:
                return f"witness gap {gap.min_gap} below {floor}"
            return None

        return check

    ops.append(
        Op(
            f"{tag}/witness",
            run_witness(
                "witness", lambda s, p: eq.markov_witness(p, s, BOUND, cce)
            ),
            witness_checker(witness_gap, witness_floor),
        )
    )
    ops.append(
        Op(
            f"{tag}/epsilon-witness",
            run_witness(
                "epsilon",
                lambda s, p: eq.epsilon_markov_witness(p, s, cce, eps_cfg),
            ),
            witness_checker(eps_gap, epsilon),
        )
    )

    def run_verify(reward_key, concept):
        def run():
            skeleton, policy = _load(paths)
            reward = eqio.load_reward(
                eqio.load_json(paths[reward_key]), skeleton, where=paths[reward_key]
            )
            return eq.check_strict(
                skeleton, reward, policy, concept, dev_class=dev_class(concept)
            )

        return run

    def verify_checker(reward, concept):
        expected = eq.check_strict(
            sk, reward, pol, concept, dev_class=dev_class(concept)
        )

        def check(report):
            if report.strict != expected.strict or not (
                abs(report.min_gap - expected.min_gap) <= 1e-9
            ):
                return (
                    f"verify gap {report.min_gap} strict {report.strict}, "
                    f"in-process {expected.min_gap} {expected.strict}"
                )
            return None

        return check

    ops.append(
        Op(
            f"{tag}/verify-ce-witness",
            run_verify("witness", ce),
            verify_checker(inst["witness"], ce),
        )
    )
    ops.append(
        Op(
            f"{tag}/verify-cce-noise",
            run_verify("noise", cce),
            verify_checker(inst["noise"], cce),
        )
    )
    return ops


def write_closed_form(seed: int, workdir: str, smoke: bool = False) -> list[dict]:
    sizes = ((2, 2, (2, 2)),) if smoke else CLOSED_FORM_SIZES
    insts = []
    for num_s, horizon, counts in sizes:
        tag = f"{num_s},{horizon},{'x'.join(map(str, counts))}"
        rng = rng_for(f"markov-closed-form/{tag}", seed)
        sk, pol = markov_instance(rng, num_s, horizon, counts)
        insts.append((tag, write_instance(workdir, tag, sk, pol, rng)))
    return insts


def plan_closed_form(insts, workdir) -> list[Op]:
    ops: list[Op] = []
    for tag, inst in insts:
        ops += _closed_form_ops(tag, inst, workdir)
    return ops


# ---------------------------------------------------------------------- cli

# cli game sizes: (states, horizon, action counts); the last one is the
# small game ``design --out`` runs on.
CLI_SIZES = ((6, 4, (3, 3)), (2, 2, (2, 2)))


@dataclass
class CliContext:
    """Where children run and whether they record spans."""

    root: str
    workdir: str
    tracer: object = None
    calls: int = 0

    def env(self) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env


def run_cli(ctx: CliContext, args: list[str]):
    """One ``python -m eqdesign.cli`` child; returns (code, stdout, out path).

    Under tracing the child runs ``cli_child.py``, which records spans of
    the same layers in the child and writes them to a file adopted here.
    """
    ctx.calls += 1
    out = None
    if args[0] == "design":
        out = os.path.join(ctx.workdir, f"design-{ctx.calls}.json")
        args = args + ["--out", out]
    tracer = ctx.tracer if ctx.tracer is not None and ctx.tracer.op is not None else None
    if tracer is None:
        argv = [sys.executable, "-m", "eqdesign.cli"] + args
    else:
        spans_path = os.path.join(ctx.workdir, f"spans-{ctx.calls}.json")
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        argv = [sys.executable, child, spans_path] + args
        span = tracer.open_span("cli", args[0])
    try:
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=ctx.env(),
            cwd=ctx.root,
        )
        try:
            stdout, _ = proc.communicate()
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    finally:
        if tracer is not None:
            tracer.close_span(span)
    if tracer is not None and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as handle:
            tracer.adopt(json.load(handle), span)
    return proc.returncode, stdout, out


def write_cli(seed: int, workdir: str, smoke: bool = False) -> list[dict]:
    insts = []
    for num_s, horizon, counts in CLI_SIZES:
        tag = f"{num_s},{horizon},{'x'.join(map(str, counts))}"
        rng = rng_for(f"cli/{tag}", seed)
        sk, pol = markov_instance(rng, num_s, horizon, counts)
        insts.append((tag, write_instance(workdir, tag, sk, pol, rng)))
    return insts


def plan_cli(insts, ctx: CliContext, smoke: bool = False) -> list[Op]:
    (mid_tag, mid), (small_tag, small) = insts
    paths = mid["paths"]
    sk, pol = mid["skeleton"], mid["policy"]
    cce, ce = eq.Concept.CCE, eq.Concept.CE
    witness_floor = 0.5 * BOUND * min_gamma(pol, cce)

    def parse(code, stdout, expected_code):
        if code != expected_code:
            return None, f"exit code {code}, expected {expected_code}"
        try:
            return json.loads(stdout)["result"], None
        except (ValueError, KeyError) as exc:
            return None, f"unreadable report ({exc})"

    def op(name, args, check):
        return Op(name, lambda: run_cli(ctx, args), check)

    def check_verdict(expected):
        def check(out):
            result, why = parse(out[0], out[1], 0 if expected else 1)
            if why is None and result["installable"] != expected:
                why = f"installable {result['installable']}, expected {expected}"
            return why

        return check

    def check_witness(out):
        result, why = parse(out[0], out[1], 0)
        if why:
            return why
        reward = eqio.load_reward(result["reward"], sk)
        if float(np.max(np.abs(reward.rewards))) > BOUND:
            return f"reward exceeds bound {BOUND}"
        gap = eq.check_strict(sk, reward, pol, cce).min_gap
        if abs(gap - result["min_gap"]) > 1e-9 or gap < witness_floor - 1e-9:
            return f"witness gap {result['min_gap']}, in-process {gap}"
        return None

    def check_verify(reward, concept):
        expected = eq.check_strict(sk, reward, pol, concept, dev_class=dev_class(concept))

        def check(out):
            result, why = parse(out[0], out[1], 0 if expected.strict else 1)
            if why is None and abs(result["min_gap"] - expected.min_gap) > 1e-9:
                why = f"verify gap {result['min_gap']}, in-process {expected.min_gap}"
            return why

        return check

    ssk, spol = small["skeleton"], small["policy"]
    spaths = small["paths"]
    slack = min(0.4, 0.9 * 0.5 * BOUND * min_gamma(spol, cce))

    def check_design_out(kind):
        cost = eq.CostSpec(eq.CostKind(kind))

        def check(out):
            result, why = parse(out[0], out[1], 0)
            if why:
                return why
            try:
                doc = eqio.load_json(out[2])
            except ValueError as exc:
                return f"design --out unreadable ({exc})"
            reward = eqio.load_reward(doc, ssk)
            if float(np.max(np.abs(reward.rewards))) > BOUND:
                return f"reward exceeds bound {BOUND}"
            gap = eq.check_strict(ssk, reward, spol, cce).min_gap
            if gap < slack - GAP_SLIP:
                return f"verifier gap {gap} below slack {slack}"
            recomputed = eq.evaluate_cost(ssk, spol, cost, reward)
            if not close(result["objective"], recomputed):
                return f"objective {result['objective']} != evaluate_cost {recomputed}"
            return None

        return check

    game, target, broken = paths["game"], paths["target"], paths["broken"]
    ops = [
        op(f"{mid_tag}/check-ce", ["check", game, target, "--concept", "ce"],
           check_verdict(True)),
        op(f"{mid_tag}/check-cce-broken",
           ["check", game, broken, "--concept", "cce"], check_verdict(False)),
        op(f"{mid_tag}/witness",
           ["witness", game, target, "--concept", "cce", "--bound", str(BOUND)],
           check_witness),
        op(f"{mid_tag}/verify-ce-witness",
           ["verify", game, target, paths["witness"], "--concept", "ce"],
           check_verify(mid["witness"], ce)),
        op(f"{mid_tag}/verify-cce-noise",
           ["verify", game, target, paths["noise"], "--concept", "cce"],
           check_verify(mid["noise"], cce)),
    ]
    for kind in ("offline", "social"):
        ops.append(
            op(
                f"{small_tag}/design-{kind}",
                ["design", spaths["game"], spaths["target"], "--concept", "cce",
                 "--cost", kind, "--slack", repr(slack), "--bound", str(BOUND)],
                check_design_out(kind),
            )
        )
    return ops[:2] if smoke else ops


def fingerprint(out) -> object:
    """Hashable digest of everything a check reads from an output."""
    if isinstance(out, tuple):
        return out[:2] + (None if out[2] is None else _file_digest(out[2]),)
    if isinstance(out, eq.DesignResult):
        tensor = out.utility if out.utility is not None else (
            out.reward.rewards if out.reward is not None else None
        )
        return (
            out.status.value,
            out.objective,
            out.achieved_slack,
            None if tensor is None else tensor.tobytes(),
        )
    if isinstance(out, eq.RewardFunction):
        return (out.bound, out.rewards.tobytes())
    if isinstance(out, eq.GapReport):
        return (out.min_gap, out.strict, out.argmin)
    if isinstance(out, eq.MarkovInstallability):
        return (out.installable,)
    return repr(out)


def _file_digest(path) -> object:
    try:
        with open(path, "rb") as handle:
            return zlib.crc32(handle.read())
    except OSError:
        return None
