"""Shared fixtures: canonical strategies, the strategy grid, random games,
the one-stage embedding of a joint strategy and its product test, and the
scalar conditional that ``conditional_matrix`` is checked against.

Every random object derives from a fixed seed plus a crc32 tag so tests stay
deterministic and order-independent.  Grid entries are screened so that any
installable entry carries a working margin of at least 1e-3; degenerate
near-coincidences would otherwise turn exact verdict comparisons into
tolerance races.
"""

import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np
import pytest

from eqdesign import (
    Concept,
    DeviationClass,
    EpsilonConfig,
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    NormalFormGame,
    RewardFunction,
    check,
    check_scce,
    epsilon_markov_witness,
    gamma_cce,
    gamma_ce,
    nfg_as_markov,
    strategy_as_policy,
    witness_utility,
)

SEED = 20260822
MARGIN_FLOOR = 1e-3


def make_rng(tag: str) -> np.random.Generator:
    return np.random.default_rng([SEED, zlib.crc32(tag.encode())])


@pytest.fixture
def rng(request) -> np.random.Generator:
    return make_rng(request.node.nodeid)


def sigma_corr() -> JointMixedStrategy:
    return JointMixedStrategy(np.array([[0.5, 0.0], [0.0, 0.5]]))


def sigma_ex() -> JointMixedStrategy:
    return JointMixedStrategy(
        np.array([[0.2, 0.2], [0.2, 0.2], [0.2, 0.0]])
    )


@pytest.fixture(name="corr")
def corr_fixture() -> JointMixedStrategy:
    return sigma_corr()


@pytest.fixture(name="ex")
def ex_fixture() -> JointMixedStrategy:
    return sigma_ex()


def zero_game(counts: tuple[int, ...], n: int = 2) -> NormalFormGame:
    sets = tuple(
        tuple(f"a{k}" for k in range(c)) for c in counts
    )
    return NormalFormGame(action_sets=sets, utility=np.zeros((n,) + counts))


def embed(sigma: JointMixedStrategy) -> tuple[MarkovGameSkeleton, MarkovPolicy]:
    """The one-stage embedding of a joint strategy, on an all-zero game."""
    game = zero_game(sigma.action_counts, sigma.num_players)
    return nfg_as_markov(game), strategy_as_policy(sigma)


def is_product(sigma: JointMixedStrategy) -> bool:
    """Whether the strategy factorizes: its embedding has no correlated stage."""
    return strategy_as_policy(sigma).first_correlated() is None


def epsilon_utility(sigma: JointMixedStrategy, concept, config: EpsilonConfig):
    """The epsilon witness of a joint strategy as a utility tensor: stage
    (0, 0) of ``epsilon_markov_witness`` on its one-stage embedding.  A
    target that cannot carry the margin raises ``StageCheckError`` with the
    largest margin it carries as ``max_gap``."""
    skeleton, policy = embed(sigma)
    return epsilon_markov_witness(policy, skeleton, concept, config).rewards[:, 0, 0]


class InfeasibleMargin(ValueError):
    """The reference's error for a stage that cannot carry the requested
    margin; ``max_gap`` is the largest margin it carries."""

    def __init__(self, message: str, max_gap: float):
        super().__init__(message)
        self.max_gap = max_gap


def epsilon_stage_reference(sigma, concept, bound, config):
    """One stage's epsilon witness at stage bound ``bound``, written from
    its definition with the one-shot API: NE pays +-bound on a pure target;
    CE and CCE scale the unit witness by epsilon / gamma, capped at the
    bound.  A target that cannot carry the margin raises
    ``InfeasibleMargin`` with the largest margin it carries."""
    eps, dev = config.epsilon, config.deviation_class
    if concept == Concept.NE and dev == DeviationClass.UNRESTRICTED:
        raise ValueError(
            "strict Nash has no finite margin against unrestricted "
            "deviations; use the never-target class"
        )
    if concept == Concept.CE and dev != DeviationClass.NEVER_RECOMMENDED:
        raise ValueError(
            "correlated epsilon-strictness is guaranteed only for the "
            "never-recommended deviation class"
        )
    counts = sigma.action_counts
    if concept == Concept.NE:
        if np.count_nonzero(sigma.probs) != 1:
            raise InfeasibleMargin(
                "strict Nash scaling requires a pure target", 0.0
            )
        if eps >= 2.0 * bound:
            raise InfeasibleMargin(
                f"epsilon {eps} not achievable: margin must stay below "
                f"{2.0 * bound}",
                2.0 * bound,
            )
        pay = np.where(sigma.probs > 0, bound, -bound)
        return np.repeat(pay[None], len(counts), 0)
    rep = check(sigma, concept)
    if not rep.installable:
        raise InfeasibleMargin(
            f"target is not {concept.value}-installable", 0.0
        )
    for i, entry in enumerate(rep.evidence):
        if entry[0] == "single" and counts[i] > 1:
            raise InfeasibleMargin(
                "coarse epsilon-strictness needs two supported actions with "
                "differing conditionals for every player; player "
                f"{i} has a single supported action",
                0.0,
            )
    gamma = (gamma_ce if concept == Concept.CE else gamma_cce)(sigma).value
    if eps > bound * gamma:
        raise InfeasibleMargin(
            f"epsilon {eps} exceeds the achievable margin {bound * gamma}",
            bound * gamma,
        )
    alpha = min(eps / gamma, bound) if np.isfinite(gamma) else 0.0
    return alpha * witness_utility(sigma)


@dataclass(frozen=True)
class Conditional:
    """Conditional opponent-profile distribution given one player's action:
    ``prob`` is the player's marginal mass on it, ``dist`` the normalized
    distribution over opponent profiles (axes of the other players, in
    order), all zeros when ``prob`` is 0."""

    player: int
    action: int
    prob: float
    dist: np.ndarray

    @property
    def is_zero(self) -> bool:
        return not np.any(self.dist > 0.0)

    def flat(self) -> np.ndarray:
        return self.dist.reshape(-1)


def conditional(sigma: JointMixedStrategy, player: int, action: int) -> Conditional:
    """Scalar reference for one row of ``conditional_matrix``."""
    slab = np.take(sigma.probs, action, axis=player)
    p = float(slab.sum())
    if p > 0.0:
        return Conditional(player, action, p, slab / p)
    return Conditional(player, action, 0.0, np.zeros_like(slab))


def _margin_ok(sigma: JointMixedStrategy) -> bool:
    for gfun in (gamma_ce, gamma_cce):
        g = gfun(sigma)
        if g.installable and math.isfinite(g.value) and g.value < MARGIN_FLOOR:
            return False
    return True


def _subset_uniforms(shape: tuple[int, ...]):
    cells = list(np.ndindex(shape))
    for size in range(1, len(cells) + 1):
        for combo in itertools.combinations(cells, size):
            probs = np.zeros(shape)
            for cell in combo:
                probs[cell] = 1.0 / size
            yield probs


def build_strategy_grid() -> list[tuple[str, JointMixedStrategy]]:
    grid: list[tuple[str, JointMixedStrategy]] = []
    for shape, n_full, n_sparse in (((2, 2), 40, 20), ((3, 2), 55, 25)):
        tag = f"{shape[0]}x{shape[1]}"
        for idx, probs in enumerate(_subset_uniforms(shape)):
            sigma = JointMixedStrategy(probs)
            assert _margin_ok(sigma), f"structured grid entry {tag}/{idx}"
            grid.append((f"{tag}-subset{idx}", sigma))
        rng = make_rng(f"grid-{tag}")
        accepted = 0
        while accepted < n_full:
            sigma = JointMixedStrategy(
                rng.dirichlet(np.full(int(np.prod(shape)), 0.7)).reshape(shape)
            )
            if _margin_ok(sigma):
                grid.append((f"{tag}-full{accepted}", sigma))
                accepted += 1
        accepted = 0
        while accepted < n_sparse:
            size = int(rng.integers(1, np.prod(shape)))
            cells = rng.choice(int(np.prod(shape)), size=size, replace=False)
            probs = np.zeros(int(np.prod(shape)))
            probs[cells] = rng.dirichlet(np.full(size, 0.7))
            sigma = JointMixedStrategy(probs.reshape(shape))
            if _margin_ok(sigma):
                grid.append((f"{tag}-sparse{accepted}", sigma))
                accepted += 1
    grid.append(("corr", sigma_corr()))
    grid.append(("ex", sigma_ex()))
    return grid


@pytest.fixture(scope="session")
def strategy_grid() -> list[tuple[str, JointMixedStrategy]]:
    grid = build_strategy_grid()
    assert len(grid) >= 200
    return grid


def random_sigma(
    rng: np.random.Generator, shape: tuple[int, ...], alpha: float = 0.8
) -> JointMixedStrategy:
    return JointMixedStrategy(
        rng.dirichlet(np.full(int(np.prod(shape)), alpha)).reshape(shape)
    )


def random_skeleton(
    rng: np.random.Generator,
    num_players: int = 2,
    max_states: int = 4,
    max_horizon: int = 4,
    max_actions: int = 3,
) -> MarkovGameSkeleton:
    counts = tuple(
        int(rng.integers(2, max_actions + 1)) for _ in range(num_players)
    )
    num_s = int(rng.integers(1, max_states + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    num_a = int(np.prod(counts))
    trans = rng.dirichlet(
        np.full(num_s, 0.9), size=(horizon, num_s, num_a)
    ).reshape((horizon, num_s) + counts + (num_s,))
    init = rng.dirichlet(np.full(num_s, 0.9))
    sets = tuple(tuple(f"a{k}" for k in range(c)) for c in counts)
    states = tuple(f"s{k}" for k in range(num_s))
    return MarkovGameSkeleton(
        action_sets=sets,
        states=states,
        horizon=horizon,
        transitions=trans,
        initial_dist=init,
    )


def three_stage_skeleton(rng: np.random.Generator) -> MarkovGameSkeleton:
    """A small random game, redrawn until its horizon is 3."""
    while True:
        skeleton = random_skeleton(rng, max_states=2, max_horizon=3, max_actions=2)
        if skeleton.horizon == 3:
            return skeleton


def installable_stage(
    rng: np.random.Generator, counts: tuple[int, ...], allow_pure: bool = True
) -> np.ndarray:
    """Stage strategy that passes check_scce with a usable margin."""
    if allow_pure and rng.random() < 0.25:
        probs = np.zeros(counts)
        probs[tuple(int(rng.integers(0, c)) for c in counts)] = 1.0
        return probs
    while True:
        probs = rng.dirichlet(np.full(int(np.prod(counts)), 0.7)).reshape(
            counts
        )
        sigma = JointMixedStrategy(probs)
        g = gamma_cce(sigma)
        if check_scce(sigma).installable and g.value >= 1e-4:
            return probs


def installable_policy(
    rng: np.random.Generator,
    skeleton: MarkovGameSkeleton,
    allow_pure: bool = True,
) -> MarkovPolicy:
    counts = skeleton.action_counts
    stages = np.zeros(
        (skeleton.horizon, skeleton.num_states) + counts
    )
    for h in range(skeleton.horizon):
        for s in range(skeleton.num_states):
            stages[h, s] = installable_stage(rng, counts, allow_pure)
    return MarkovPolicy(stages=stages)


def random_policy(
    rng: np.random.Generator, skeleton: MarkovGameSkeleton
) -> MarkovPolicy:
    counts = skeleton.action_counts
    num_a = int(np.prod(counts))
    stages = rng.dirichlet(
        np.full(num_a, 0.8), size=(skeleton.horizon, skeleton.num_states)
    ).reshape((skeleton.horizon, skeleton.num_states) + counts)
    return MarkovPolicy(stages=stages)


def random_reward(
    rng: np.random.Generator, skeleton: MarkovGameSkeleton, bound: float = 2.0
) -> RewardFunction:
    shape = (
        skeleton.num_players,
        skeleton.horizon,
        skeleton.num_states,
    ) + skeleton.action_counts
    return RewardFunction(
        rewards=rng.uniform(-bound, bound, shape), bound=bound
    )


def random_lp_case(rng: np.random.Generator, num_vars: int):
    """Integer-data box-bounded program as raw arrays."""
    m = int(rng.integers(1, 7))
    coeffs = rng.integers(-4, 5, size=(m, num_vars)).astype(float)
    rhs = rng.integers(-4, 5, size=m).astype(float)
    cost = rng.integers(-3, 4, size=num_vars).astype(float)
    rels = [
        "=" if r < 0.15 else ("<=" if r < 0.575 else ">=")
        for r in rng.random(m)
    ]
    lo = rng.integers(-2, 1, size=num_vars).astype(float)
    hi = rng.integers(1, 4, size=num_vars).astype(float)
    return coeffs, rels, rhs, cost, lo, hi


def build_lp(coeffs, rels, rhs, cost, lo, hi):
    from eqdesign import LinearProgram

    return LinearProgram(cost, coeffs, rels, rhs, lo, hi)


def inequality_form(coeffs, rels, rhs, lo, hi):
    """Constraints plus box rows as G @ x <= h, equalities split."""
    n = coeffs.shape[1]
    rows, limits = [], []
    for row, rel, b in zip(coeffs, rels, rhs):
        if rel in ("<=", "="):
            rows.append(row)
            limits.append(b)
        if rel in (">=", "="):
            rows.append(-row)
            limits.append(-b)
    eye = np.eye(n)
    for j in range(n):
        rows.append(eye[j])
        limits.append(hi[j])
        rows.append(-eye[j])
        limits.append(-lo[j])
    return np.array(rows), np.array(limits)


def vertex_optimum(cost, rows, limits, feas_tol=1e-7):
    """Minimum of cost @ x over {rows @ x <= limits} by vertex enumeration.

    Every variable must be boxed on both sides so the region is a polytope;
    a nonempty polytope attains its minimum at a vertex, and every vertex
    solves some n linearly independent active rows.  Returns None when no
    enumerated vertex is feasible (the region is empty).  Integer row data
    keeps invertible subsystem determinants at magnitude >= 1, so the
    singularity cutoff drops only genuinely dependent subsets.
    """
    m, n = rows.shape
    combos = np.array(list(itertools.combinations(range(m), n)))
    best = None
    for start in range(0, len(combos), 4096):
        idx = combos[start : start + 4096]
        mats = rows[idx]
        good = np.abs(np.linalg.det(mats)) > 1e-6
        if not np.any(good):
            continue
        verts = np.linalg.solve(mats[good], limits[idx[good]][..., None])[
            ..., 0
        ]
        feas = np.all(verts @ rows.T <= limits + feas_tol, axis=1)
        if not np.any(feas):
            continue
        low = float((verts[feas] @ cost).min())
        if best is None or low < best:
            best = low
    return best
