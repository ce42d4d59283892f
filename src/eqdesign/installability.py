"""Decide whether a target behavior can be made a strict equilibrium.

For a fixed joint strategy the question is whether some bounded reward
function makes it a strict Nash (``NE``), strict correlated (``CE``), or
strict coarse-correlated (``CCE``) equilibrium.  Each check is a closed-form
test on the target's conditional distributions; no optimization is involved.
A Markov policy qualifies iff every (stage, state) strategy does; one array
expression over the policy's conditional table checks all stages at once.

It is also the one home of the concept rules that every check, witness,
design and verification shares: :func:`require` rejects a concept it does
not know, a Nash target with a correlated stage, and a class the concept
cannot measure, and :func:`deviation_mask` is the set of deviations each
concept measures.

Verdicts are deterministic: players, then actions, are scanned in ascending
index order and the first violation found becomes the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from .games import (
    COND_ATOL,
    JointMixedStrategy,
    MarkovPolicy,
    is_product,
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


def require(
    concept: Concept,
    target: Union[JointMixedStrategy, MarkovPolicy],
    dev_class: Optional[DeviationClass] = None,
) -> None:
    """Raise unless ``concept`` is known, applies to ``target``, and can
    measure ``dev_class``, checked in that order.  A Nash target's first
    correlated stage (row-major; a joint strategy is stage ``(0, 0)``) raises
    :class:`NotProductError`.  Only CE measures never-recommended deviations,
    and only NE and CCE never-target ones."""
    if concept not in (Concept.NE, Concept.CE, Concept.CCE):
        raise ValueError(f"unknown concept {concept!r}")
    if concept == Concept.NE:
        if isinstance(target, MarkovPolicy):
            bad = target.first_correlated()
        else:
            bad = None if is_product(target) else (0, 0)
        if bad is not None:
            raise NotProductError(
                f"stage (h={bad[0]}, s={bad[1]}) is not a product strategy"
            )
    if dev_class == DeviationClass.NEVER_RECOMMENDED and concept != Concept.CE:
        raise ValueError(
            "never-recommended deviations are recommendation-aware: "
            "they apply to the CE concept only"
        )
    if dev_class == DeviationClass.NEVER_TARGET and concept == Concept.CE:
        raise ValueError(
            "never-target deviations apply to the NE/CCE concepts only"
        )


def deviation_mask(p: np.ndarray, concept: Concept) -> np.ndarray:
    """The deviations ``concept`` measures, from one player's masses ``p``
    over its last axis.  CE: the pairs of a supported recommendation ``j``
    and a replacement ``k != j``, shaped ``(..., c, c)``.  NE and CCE: every
    action except one carrying the player's whole mass, which replicates
    the target, shaped ``(..., c)``."""
    sup = p > 0.0
    if concept == Concept.CE:
        other = np.arange(p.shape[-1])
        return sup[..., None] & (other[:, None] != other)
    return ~(sup & (sup.sum(axis=-1, keepdims=True) == 1))


def stage_reports(table, concept: Concept) -> list[InstallabilityReport]:
    """Verdicts for every stage of a ``conditional_table`` (of a
    :class:`MarkovPolicy`, axes ``(h, s)``, or of a :class:`JointMixedStrategy`,
    none) at once, in row-major order of its leading axes.  The caller has
    passed :func:`require`."""
    failing, certs, evidence = [], [], []
    for p, conds in table:
        count = p.shape[-1]
        sup = p.reshape(-1, count) > 0.0
        conds = conds.reshape((len(sup), count, -1))
        single = sup.sum(axis=1) == 1
        if concept == Concept.NE:
            failing.append(~single)
            certs.append(())
        elif concept == Concept.CE:
            # Pairwise L-inf table; a hit is a supported pair j < k within
            # COND_ATOL.
            diffs = np.abs(conds[:, :, None] - conds[:, None]).max(axis=3)
            hits = (diffs <= COND_ATOL) & sup[:, :, None] & sup[:, None, :]
            hits &= np.arange(count)[:, None] < np.arange(count)
            hits = hits.reshape(len(sup), -1)
            failing.append(hits.any(axis=1))
            certs.append(np.divmod(hits.argmax(axis=1), count))
        else:
            # Each supported conditional against the lowest supported anchor's.
            anchor = sup.argmax(axis=1)
            ref = conds[np.arange(len(sup)), anchor][:, None]
            differs = sup & (np.abs(conds - ref).max(axis=2) > COND_ATOL)
            after = sup & (np.arange(count) > anchor[:, None])
            failing.append(~single & ~differs.any(axis=1))
            certs.append((anchor, after.argmax(axis=1)))
            evidence.append((single, anchor, differs.argmax(axis=1)))
    failing = np.array(failing)
    first = np.where(failing.any(axis=0), failing.argmax(axis=0), -1)
    certs = [[col.tolist() for col in cols] for cols in certs]
    evidence = [[col.tolist() for col in cols] for cols in evidence]
    reports = []
    for k, i in enumerate(first.tolist()):
        if i >= 0:
            cert = (i,) + tuple(col[k] for col in certs[i])
            reports.append(InstallabilityReport(concept, False, certificate=cert))
            continue
        found = tuple(
            ("single", a[k]) if one[k] else ("pair", a[k], b[k])
            for one, a, b in evidence
        )
        reports.append(InstallabilityReport(concept, True, evidence=found))
    return reports


def check_scce(sigma: JointMixedStrategy) -> InstallabilityReport:
    """Strict-coarse-correlated installability: ``check(sigma, Concept.CCE)``."""
    return check(sigma, Concept.CCE)


def check(sigma: JointMixedStrategy, concept: Concept) -> InstallabilityReport:
    """Installability of one joint strategy: one stage of
    :func:`stage_reports`.

    NE: a product strategy (else :class:`NotProductError`) qualifies iff
    every player puts all mass on a single action.  CE: fails exactly when
    some player has two supported actions whose conditionals coincide
    (L-inf within ``COND_ATOL``).  CCE: each player qualifies by having a
    single supported action, or some supported action whose conditional
    differs from the lowest supported anchor's; a player whose supported
    conditionals all coincide defeats installability.
    """
    require(concept, sigma)
    return stage_reports(sigma.conditional_table, concept)[0]


def check_markov(policy: MarkovPolicy, concept: Concept) -> MarkovInstallability:
    """Stage-wise installability of a Markov policy.

    Every (stage, state) pair is checked at once from the policy's
    conditional table, so the report is complete; each stage's report equals
    :func:`check` on that stage.  For ``NE`` every stage must factorize.
    """
    require(concept, policy)
    reports = stage_reports(policy.conditional_table, concept)
    return MarkovInstallability(
        concept=concept,
        installable=all(rep.installable for rep in reports),
        stages=dict(zip(np.ndindex(policy.horizon, policy.num_states), reports)),
    )
