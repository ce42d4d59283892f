"""Command-line front end.

Four subcommands share one input convention: a game file, a target file
(strategy or policy), and for ``verify`` a reward file.  One-shot games are
routed through the one-stage embedding where a Markov object is needed.
Every run prints a JSON report; exit status 0 means a positive verdict
(installable, strict, optimal), 1 a negative one, 2 a usage or input error,
and 3 a failure of the tool itself (a solver or post-solve check that broke
down), which is no verdict at all.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

import click

from . import __version__
from .design import CostKind, CostSpec, DesignConfig, design
from .games import (
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    NormalFormGame,
    nfg_as_markov,
)
from .installability import (
    Concept,
    DeviationClass,
    InstallabilityReport,
    MarkovInstallability,
    check,
    check_markov,
)
from .io import (
    dump_json,
    load_baseline,
    load_game,
    load_json,
    load_policy,
    load_reward,
    load_utility,
    reward_to_doc,
    utility_to_doc,
)
from .lp import LpStatus
from .verify import GapReport, check_strict, nfg_oracle
from .witness import (
    EpsilonConfig,
    GammaResult,
    InfeasibleEpsilonError,
    StageCheckError,
    epsilon_markov_witness,
    epsilon_witness,
    gamma_cce,
    gamma_ce,
    markov_witness,
    witness_utility,
)

@dataclass
class JobSpec:
    """One resolved invocation; ``run`` executes it without any I/O setup."""

    command: str
    game_path: str
    target_path: str
    reward_path: Optional[str] = None
    concept: Concept = Concept.CCE
    deviation_class: Optional[DeviationClass] = None
    epsilon: Optional[float] = None
    slack: float = 0.0
    bound: float = 1.0
    cost: CostKind = CostKind.OFFLINE
    baseline_path: Optional[str] = None
    out_path: Optional[str] = None
    max_gap: bool = False
    lp_dump: Optional[str] = None


def _default_class(concept: Concept) -> DeviationClass:
    if concept == Concept.CE:
        return DeviationClass.NEVER_RECOMMENDED
    if concept == Concept.NE:
        return DeviationClass.NEVER_TARGET
    return DeviationClass.UNRESTRICTED


def _key_str(key: tuple) -> str:
    return ",".join(str(part) for part in key)


def _installability_doc(report: InstallabilityReport) -> dict:
    return {
        "concept": report.concept.value,
        "installable": report.installable,
        "certificate": list(report.certificate)
        if report.certificate is not None
        else None,
        "evidence": [list(entry) for entry in report.evidence],
    }


def _markov_installability_doc(verdict: MarkovInstallability) -> dict:
    return {
        "concept": verdict.concept.value,
        "installable": verdict.installable,
        "stages": {
            _key_str(hs): _installability_doc(rep)
            for hs, rep in sorted(verdict.stages.items())
        },
    }


def _gap_doc(report: GapReport) -> dict:
    return {
        "concept": report.concept.value,
        "epsilon": report.epsilon,
        "deviation_class": report.deviation_class.value
        if report.deviation_class is not None
        else None,
        "strict": report.strict,
        "min_gap": report.min_gap,
        "argmin": list(report.argmin) if report.argmin is not None else None,
        "gaps": {
            _key_str(key): gap for key, gap in sorted(report.per_constraint.items())
        },
    }


def _load_inputs(job: JobSpec):
    game = load_game(load_json(job.game_path), where=job.game_path)
    if isinstance(game, NormalFormGame):
        skeleton = nfg_as_markov(game)
    else:
        skeleton = game
    policy = load_policy(
        load_json(job.target_path), skeleton, where=job.target_path
    )
    return game, skeleton, policy


def _config_doc(job: JobSpec) -> dict:
    doc = {
        "command": job.command,
        "game": job.game_path,
        "target": job.target_path,
        "concept": job.concept.value,
    }
    if job.reward_path is not None:
        doc["reward"] = job.reward_path
    if job.command in ("witness", "verify"):
        doc["deviation_class"] = (
            job.deviation_class or _default_class(job.concept)
        ).value
    if job.command in ("witness", "design"):
        doc["bound"] = job.bound
    if job.epsilon is not None:
        doc["epsilon"] = job.epsilon
    if job.command == "verify" and job.epsilon is None:
        doc["epsilon"] = 0.0
    if job.command == "design":
        doc["slack"] = job.slack
        doc["cost"] = job.cost.value
        doc["max_gap"] = job.max_gap
        if job.baseline_path is not None:
            doc["baseline"] = job.baseline_path
    return doc


def _run_check(job: JobSpec) -> tuple[int, dict]:
    game, _, policy = _load_inputs(job)
    if isinstance(game, NormalFormGame):
        report = check(policy.stage(0, 0), job.concept)
        result = _installability_doc(report)
        ok = report.installable
    else:
        verdict = check_markov(policy, job.concept)
        result = _markov_installability_doc(verdict)
        ok = verdict.installable
    return (0 if ok else 1), result


def _run_witness(job: JobSpec) -> tuple[int, dict]:
    game, skeleton, policy = _load_inputs(job)
    dev = job.deviation_class or _default_class(job.concept)
    one_shot = isinstance(game, NormalFormGame)
    if one_shot and job.epsilon is None and job.concept != Concept.NE:
        sigma = policy.stage(0, 0)
        gamma: GammaResult = (
            gamma_ce(sigma) if job.concept == Concept.CE else gamma_cce(sigma)
        )
        result = {
            "installable": gamma.installable,
            "gamma": gamma.value,
        }
        if not gamma.installable:
            return 1, result
        utility = witness_utility(sigma)
        oracle = nfg_oracle(utility, sigma, job.concept)
        result["min_gap"] = oracle.min_gap
        result["utility"] = utility_to_doc(utility)["utility"]
        return 0, result
    if one_shot:
        sigma = policy.stage(0, 0)
        cfg = EpsilonConfig(
            epsilon=job.epsilon if job.epsilon is not None else 0.0,
            bound=job.bound,
            deviation_class=dev,
        )
        try:
            utility = epsilon_witness(sigma, job.concept, cfg)
        except InfeasibleEpsilonError as exc:
            return 1, {
                "feasible": False,
                "max_epsilon": exc.max_gap,
                "message": str(exc),
            }
        oracle = nfg_oracle(utility, sigma, job.concept)
        return 0, {
            "feasible": True,
            "min_gap": oracle.min_gap,
            "utility": utility_to_doc(utility)["utility"],
        }
    try:
        if job.epsilon is None:
            reward = markov_witness(policy, skeleton, job.bound, job.concept)
        else:
            cfg = EpsilonConfig(
                epsilon=job.epsilon, bound=job.bound, deviation_class=dev
            )
            reward = epsilon_markov_witness(policy, skeleton, job.concept, cfg)
    except StageCheckError as exc:
        return 1, {
            "feasible": False,
            "stage": list(exc.stage),
            "message": str(exc),
        }
    gap = check_strict(
        skeleton,
        reward,
        policy,
        job.concept,
        epsilon=job.epsilon if job.epsilon is not None else 0.0,
        dev_class=dev,
    )
    return 0, {
        "feasible": True,
        "min_gap": gap.min_gap,
        "reward": reward_to_doc(reward),
    }


def _run_design(job: JobSpec) -> tuple[int, dict]:
    game, skeleton, policy = _load_inputs(job)
    baseline = None
    if job.baseline_path is not None:
        baseline = load_baseline(
            load_json(job.baseline_path), game, where=job.baseline_path
        )
    cost = CostSpec(kind=job.cost, baseline=baseline)
    config = DesignConfig(slack=job.slack, bound=job.bound, max_gap=job.max_gap)
    one_shot = isinstance(game, NormalFormGame)
    target = policy.stage(0, 0) if one_shot else policy
    if job.lp_dump is not None:
        from .design import build_mg_lp, build_nfg_lp

        if one_shot:
            lp, _ = build_nfg_lp(
                target, job.concept, cost, config, baseline=game.utility
            )
        else:
            lp, _ = build_mg_lp(skeleton, target, job.concept, cost, config)
        with open(job.lp_dump, "w", encoding="utf-8") as handle:
            handle.write(lp.dump())
    res = design(game, target, job.concept, cost, config)
    result = {
        "status": res.status.value,
        "cost": res.cost.value,
        "iterations": res.iterations,
        "phase_steps": list(res.phase_steps),
    }
    if res.status != LpStatus.OPTIMAL:
        return 1, result
    result["objective"] = res.objective
    if res.achieved_slack is not None:
        result["achieved_slack"] = res.achieved_slack
    result["min_gap"] = res.report.min_gap
    if one_shot:
        result["utility"] = utility_to_doc(res.utility)["utility"]
        artifact = utility_to_doc(res.utility)
    else:
        result["reward"] = reward_to_doc(res.reward)
        artifact = reward_to_doc(res.reward)
    if job.out_path is not None:
        dump_json(artifact, job.out_path)
    return 0, result


def _run_verify(job: JobSpec) -> tuple[int, dict]:
    game, skeleton, policy = _load_inputs(job)
    doc = load_json(job.reward_path)
    if isinstance(game, NormalFormGame) and "utility" in doc:
        reward = load_utility(doc, game, where=job.reward_path)
    else:
        reward = load_reward(doc, skeleton, where=job.reward_path)
    dev = job.deviation_class or _default_class(job.concept)
    report = check_strict(
        skeleton,
        reward,
        policy,
        job.concept,
        epsilon=job.epsilon if job.epsilon is not None else 0.0,
        dev_class=dev,
    )
    return (0 if report.strict else 1), _gap_doc(report)


_RUNNERS = {
    "check": _run_check,
    "witness": _run_witness,
    "design": _run_design,
    "verify": _run_verify,
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute a job and return (exit_code, full report document)."""
    code, result = _RUNNERS[job.command](job)
    report = {
        "tool": {"name": "eqdesign", "version": __version__},
        "config": _config_doc(job),
        "result": result,
    }
    return code, report


def _emit(job: JobSpec, code: int, report: dict) -> None:
    dump_json(report, sys.stdout)
    if job.command != "design" and job.out_path is not None:
        dump_json(report, job.out_path)
    sys.exit(code)


def _execute(job: JobSpec) -> None:
    try:
        code, report = run(job)
    except ValueError as exc:  # every input error of the package is one
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except RuntimeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    _emit(job, code, report)


_concept_option = click.option(
    "--concept",
    type=click.Choice([c.value for c in Concept]),
    default=Concept.CCE.value,
    show_default=True,
    help="Equilibrium notion to target.",
)
_class_option = click.option(
    "--deviation-class",
    type=click.Choice([d.value for d in DeviationClass]),
    default=None,
    help="Deviation family for margins (default depends on the concept).",
)


@click.group()
@click.version_option(version=__version__, prog_name="eqdesign")
def main() -> None:
    """Install-at-equilibrium toolkit: check targets, build witness payoffs,
    design minimal-cost rewards, and verify strictness margins."""


@main.command("check")
@click.argument("game", type=click.Path(exists=True, dir_okay=False))
@click.argument("target", type=click.Path(exists=True, dir_okay=False))
@_concept_option
def check_cmd(game: str, target: str, concept: str) -> None:
    """Decide whether TARGET can be made strictly stable in some game."""
    _execute(
        JobSpec(
            command="check",
            game_path=game,
            target_path=target,
            concept=Concept(concept),
        )
    )


@main.command("witness")
@click.argument("game", type=click.Path(exists=True, dir_okay=False))
@click.argument("target", type=click.Path(exists=True, dir_okay=False))
@_concept_option
@_class_option
@click.option("--bound", type=float, default=1.0, show_default=True,
              help="Payoff magnitude cap for the constructed tensor.")
@click.option("--epsilon", type=float, default=None,
              help="Requested strictness margin; omit for the canonical witness.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the report to this file.")
def witness_cmd(
    game: str,
    target: str,
    concept: str,
    deviation_class: Optional[str],
    bound: float,
    epsilon: Optional[float],
    out_path: Optional[str],
) -> None:
    """Construct payoffs that make TARGET strictly stable."""
    _execute(
        JobSpec(
            command="witness",
            game_path=game,
            target_path=target,
            concept=Concept(concept),
            deviation_class=DeviationClass(deviation_class)
            if deviation_class
            else None,
            bound=bound,
            epsilon=epsilon,
            out_path=out_path,
        )
    )


@main.command("design")
@click.argument("game", type=click.Path(exists=True, dir_okay=False))
@click.argument("target", type=click.Path(exists=True, dir_okay=False))
@_concept_option
@click.option("--slack", type=float, default=0.0, show_default=True,
              help="Required margin on every deviation constraint.")
@click.option("--bound", type=float, default=1.0, show_default=True,
              help="Reward magnitude cap.")
@click.option("--cost", type=click.Choice([c.value for c in CostKind]),
              default=CostKind.OFFLINE.value, show_default=True,
              help="Objective to optimize.")
@click.option("--baseline", "baseline_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Reference reward file for the modification costs.")
@click.option("--max-gap", is_flag=True, default=False,
              help="Ignore the cost and maximize the uniform margin instead.")
@click.option("--lp-dump", "lp_dump", type=click.Path(dir_okay=False),
              default=None, help="Write the assembled program to this file.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the designed reward document to this file.")
def design_cmd(
    game: str,
    target: str,
    concept: str,
    slack: float,
    bound: float,
    cost: str,
    baseline_path: Optional[str],
    max_gap: bool,
    lp_dump: Optional[str],
    out_path: Optional[str],
) -> None:
    """Find minimal-cost rewards installing TARGET with the given margin."""
    _execute(
        JobSpec(
            command="design",
            game_path=game,
            target_path=target,
            concept=Concept(concept),
            slack=slack,
            bound=bound,
            cost=CostKind(cost),
            baseline_path=baseline_path,
            max_gap=max_gap,
            lp_dump=lp_dump,
            out_path=out_path,
        )
    )


@main.command("verify")
@click.argument("game", type=click.Path(exists=True, dir_okay=False))
@click.argument("target", type=click.Path(exists=True, dir_okay=False))
@click.argument("reward", type=click.Path(exists=True, dir_okay=False))
@_concept_option
@_class_option
@click.option("--epsilon", type=float, default=None,
              help="Margin the report should certify (default 0).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the report to this file.")
def verify_cmd(
    game: str,
    target: str,
    reward: str,
    concept: str,
    deviation_class: Optional[str],
    epsilon: Optional[float],
    out_path: Optional[str],
) -> None:
    """Measure every deviation margin of REWARD at TARGET."""
    _execute(
        JobSpec(
            command="verify",
            game_path=game,
            target_path=target,
            reward_path=reward,
            concept=Concept(concept),
            deviation_class=DeviationClass(deviation_class)
            if deviation_class
            else None,
            epsilon=epsilon,
            out_path=out_path,
        )
    )


if __name__ == "__main__":
    main()
