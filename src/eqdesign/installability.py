"""Decide whether a target behavior can be made a strict equilibrium.

For a fixed joint strategy the question is whether some bounded reward
function makes it a strict Nash (``NE``), strict correlated (``CE``), or
strict coarse-correlated (``CCE``) equilibrium.  Each check is a closed-form
test on the target's conditional distributions; no optimization is involved.
Markov targets are handled stage by stage: the policy qualifies iff every
(stage, state) strategy does.

Verdicts are deterministic: players, then actions, are scanned in ascending
index order and the first violation found becomes the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .games import (
    COND_ATOL,
    JointMixedStrategy,
    MarkovPolicy,
    conditional_matrix,
    is_product,
    support,
)


class Concept(str, Enum):
    """Solution concept whose strict variant is being targeted."""

    NE = "ne"
    CE = "ce"
    CCE = "cce"


class DeviationClass(str, Enum):
    """Which deviations an epsilon-strictness guarantee quantifies over.

    ``UNRESTRICTED``: every deviation policy.  ``NEVER_TARGET``: deviations
    never play an action the target plays with probability one at that stage.
    ``NEVER_RECOMMENDED``: recommendation-aware deviations that always swap
    the recommended action for a different one.
    """

    UNRESTRICTED = "unrestricted"
    NEVER_TARGET = "never-target"
    NEVER_RECOMMENDED = "never-recommended"


class NotProductError(ValueError):
    """A product-strategy precondition was violated."""


@dataclass(frozen=True)
class InstallabilityReport:
    """Outcome of a single installability check.

    ``certificate`` pins the first violation found (concept-specific):
    NE — ``(player,)`` lacking a unit-mass action; CE and CCE —
    ``(player, j, k)`` with coinciding nonzero conditionals.  On CCE success,
    ``evidence`` holds one entry per player: ``("single", j)`` for a lone
    supported action or ``("pair", k, j)`` for the anchor k and the first
    supported j whose conditional differs.
    """

    concept: Concept
    installable: bool
    certificate: Optional[tuple] = None
    evidence: tuple = ()


@dataclass(frozen=True)
class MarkovInstallability:
    """Stage-by-stage verdicts for a Markov policy; installable iff all are."""

    concept: Concept
    installable: bool
    stages: dict = field(default_factory=dict)

    def stage(self, h: int, s: int) -> InstallabilityReport:
        return self.stages[(h, s)]


def check_sne(
    sigma: JointMixedStrategy, atol: float = COND_ATOL
) -> InstallabilityReport:
    """Strict-Nash installability of a product strategy.

    Installable iff every player puts all mass on a single action.  Raises
    :class:`NotProductError` for correlated input.
    """
    if not is_product(sigma, atol=atol):
        raise NotProductError("strict Nash check requires a product strategy")
    for i in range(sigma.num_players):
        if len(support(sigma, i)) != 1:
            return InstallabilityReport(Concept.NE, False, certificate=(i,))
    return InstallabilityReport(Concept.NE, True)


def check_sce(
    sigma: JointMixedStrategy, atol: float = COND_ATOL
) -> InstallabilityReport:
    """Strict-correlated installability.

    Fails exactly when some player has two supported actions whose
    conditional opponent distributions coincide (L-inf within ``atol``);
    the first such ``(player, j, k)`` is the certificate.
    """
    for i in range(sigma.num_players):
        p, conds = conditional_matrix(sigma, i)
        supported = np.flatnonzero(p > 0.0)
        for a, j in enumerate(supported[:-1]):
            later = supported[a + 1 :]
            diffs = np.max(np.abs(conds[later] - conds[j]), axis=1)
            hits = np.flatnonzero(diffs <= atol)
            if hits.size:
                k = int(later[hits[0]])
                return InstallabilityReport(
                    Concept.CE, False, certificate=(i, int(j), k)
                )
    return InstallabilityReport(Concept.CE, True)


def check_scce(
    sigma: JointMixedStrategy, atol: float = COND_ATOL
) -> InstallabilityReport:
    """Strict-coarse-correlated installability.

    Each player qualifies by having a single supported action, or some
    supported action whose conditional differs from the lowest supported
    anchor's.  A player whose supported conditionals all coincide defeats
    installability; the certificate is the anchor and the next supported
    action.  Runs in time linear in the joint profile count per player.
    """
    evidence = []
    for i in range(sigma.num_players):
        p, conds = conditional_matrix(sigma, i)
        supported = np.flatnonzero(p > 0.0)
        if supported.size == 1:
            evidence.append(("single", int(supported[0])))
            continue
        anchor = int(supported[0])
        diffs = np.max(np.abs(conds[supported] - conds[anchor]), axis=1)
        differing = np.flatnonzero(diffs > atol)
        if differing.size == 0:
            return InstallabilityReport(
                Concept.CCE,
                False,
                certificate=(i, anchor, int(supported[1])),
            )
        evidence.append(("pair", anchor, int(supported[differing[0]])))
    return InstallabilityReport(Concept.CCE, True, evidence=tuple(evidence))


def check(
    sigma: JointMixedStrategy, concept: Concept, atol: float = COND_ATOL
) -> InstallabilityReport:
    """Dispatch to the checker for ``concept``."""
    if concept == Concept.NE:
        return check_sne(sigma, atol=atol)
    if concept == Concept.CE:
        return check_sce(sigma, atol=atol)
    if concept == Concept.CCE:
        return check_scce(sigma, atol=atol)
    raise ValueError(f"unknown concept {concept!r}")


def check_markov(
    policy: MarkovPolicy, concept: Concept, atol: float = COND_ATOL
) -> MarkovInstallability:
    """Stage-wise installability of a Markov policy.

    The per-stage checks are independent and order-insensitive; results are
    collected for every (stage, state) pair even after a failure so the
    report is complete.  For ``NE`` every stage must factorize.
    """
    bad = policy.first_correlated(atol) if concept == Concept.NE else None
    if bad is not None:
        raise NotProductError(
            f"stage (h={bad[0]}, s={bad[1]}) is not a product strategy"
        )
    reports: dict = {}
    ok = True
    for h in range(policy.horizon):
        for s in range(policy.num_states):
            rep = check(policy.stage(h, s), concept, atol=atol)
            reports[(h, s)] = rep
            ok = ok and rep.installable
    return MarkovInstallability(concept=concept, installable=ok, stages=reports)
