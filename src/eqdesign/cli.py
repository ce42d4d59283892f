"""Command-line front end.

Four subcommands share one input convention: a game file, a target file
(strategy or policy), and for ``verify`` a reward file.  Every runner
works on the Markov form of the game: a one-shot game is its one-stage
embedding, which changes only how the report renders rewards (as the
``utility`` of stage 0, state 0) and, for a one-shot CE/CCE canonical
witness, adds the target's ``installable`` flag and ``gamma``.
Every run prints a JSON report whose ``config`` lists the command and every
option it ran with; exit status 0 means a positive verdict (installable,
strict, optimal), 1 a negative one, 2 a usage or input error, and 3 a
failure of the tool itself (a solver or post-solve check that broke down),
which is no verdict at all.
"""

from __future__ import annotations

import dataclasses
import sys

import click

from . import __version__
from .design import CostKind, CostSpec, DesignConfig, _solve_design, build_mg_lp
from .games import NormalFormGame, ShapeError, nfg_as_markov
from .installability import (
    Concept,
    DeviationClass,
    InstallabilityReport,
    MarkovInstallability,
    check_markov,
    require,
)
from .io import (
    InputFormatError,
    dump_json,
    load_baseline,
    load_game,
    load_json,
    load_policy,
    load_reward,
    reward_to_doc,
    utility_to_doc,
)
from .lp import LpStatus
from .verify import GapReport, check_strict
from .witness import (
    EpsilonConfig,
    StageCheckError,
    _gamma_values,
    epsilon_markov_witness,
    markov_witness,
)


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


def _load_inputs(game_path: str, target_path: str):
    """The game, its Markov form, and the target as a policy of that form."""
    game = load_game(load_json(game_path), where=game_path)
    skeleton = nfg_as_markov(game) if isinstance(game, NormalFormGame) else game
    policy = load_policy(load_json(target_path), skeleton, where=target_path)
    return game, skeleton, policy


def _run_check(game, target, concept) -> tuple[int, dict]:
    game, _, policy = _load_inputs(game, target)
    verdict = check_markov(policy, concept)
    if isinstance(game, NormalFormGame):
        result = _installability_doc(verdict.stage(0, 0))
    else:
        result = _markov_installability_doc(verdict)
    return (0 if verdict.installable else 1), result


def _run_witness(
    game, target, concept, deviation_class, bound, epsilon, **_
) -> tuple[int, dict]:
    """Check the concept rules, build :func:`markov_witness` or
    :func:`epsilon_markov_witness` on the Markov form and measure it with
    :func:`check_strict` at the requested class and epsilon; a one-shot
    CE/CCE canonical witness adds ``installable``, the witness's own stage
    check, and ``gamma``, 0 when not installable."""
    game, skeleton, policy = _load_inputs(game, target)
    cfg = EpsilonConfig(
        epsilon=epsilon or 0.0, bound=bound, deviation_class=deviation_class
    )
    require(concept, policy, deviation_class)
    one_shot = isinstance(game, NormalFormGame)
    with_gamma = one_shot and epsilon is None and concept != Concept.NE
    try:
        if epsilon is not None:
            reward = epsilon_markov_witness(policy, skeleton, concept, cfg)
        else:
            reward = markov_witness(policy, skeleton, bound, concept)
    except StageCheckError as exc:
        if with_gamma:
            return 1, {"installable": False, "gamma": 0.0}
        result = {"feasible": False, "stage": list(exc.stage), "message": str(exc)}
        if exc.max_gap is not None:
            result["max_epsilon"] = exc.max_gap
        return 1, result
    result = {"feasible": True}
    if with_gamma:
        gamma = _gamma_values(policy.conditional_table, concept)[0, 0]
        result = {"installable": True, "gamma": float(gamma)}
    result["min_gap"] = check_strict(
        skeleton, reward, policy, concept,
        epsilon=cfg.epsilon, dev_class=deviation_class,
    ).min_gap
    if one_shot:
        result["utility"] = utility_to_doc(reward.rewards[:, 0, 0])["utility"]
    else:
        result["reward"] = reward_to_doc(reward)
    return 0, result


def _run_design(
    game, target, concept, slack, bound, cost, baseline, max_gap, lp_dump, out
) -> tuple[int, dict]:
    """Design on the Markov form as :func:`design` does, building the
    program once; ``--baseline`` reads the documents ``verify`` reads and
    replaces the game's baseline reward with it, and ``--lp-dump`` writes
    the :func:`build_mg_lp` program before it is solved."""
    game, skeleton, policy = _load_inputs(game, target)
    if baseline is not None:
        base = load_baseline(load_json(baseline), game, where=baseline)
        try:
            skeleton = dataclasses.replace(skeleton, baseline_reward=base)
        except ShapeError as exc:
            raise InputFormatError(f"{baseline}: {exc}") from None
    cost = CostSpec(kind=cost)
    config = DesignConfig(slack=slack, bound=bound, max_gap=max_gap)
    built = build_mg_lp(skeleton, policy, concept, cost, config)
    if lp_dump is not None:
        with open(lp_dump, "w", encoding="utf-8") as handle:
            handle.write(built[0].dump())
    res = _solve_design(skeleton, policy, concept, cost, config, built)
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
    if isinstance(game, NormalFormGame):
        artifact = utility_to_doc(res.reward.rewards[:, 0, 0])
        result["utility"] = artifact["utility"]
    else:
        artifact = reward_to_doc(res.reward)
        result["reward"] = artifact
    if out is not None:
        dump_json(artifact, out)
    return 0, result


def _run_verify(
    game, target, reward, concept, deviation_class, epsilon, **_
) -> tuple[int, dict]:
    """Measure a reward document, or a one-shot ``utility`` document, with
    :func:`check_strict` on the Markov form."""
    game, skeleton, policy = _load_inputs(game, target)
    loaded = load_reward(load_json(reward), game, where=reward)
    report = check_strict(
        skeleton, loaded, policy, concept,
        epsilon=epsilon, dev_class=deviation_class,
    )
    return (0 if report.strict else 1), _gap_doc(report)


def _execute(runner, opts: dict) -> None:
    """Run one subcommand on click's option values, print its report, exit.

    The report's ``config`` is the command plus every option that is set,
    apart from the output paths, with the concept's default deviation class
    filled in.  Input errors, an unwritable output path among them, exit 2
    and every other exception, a failure of the tool, 3, with no report;
    the report is printed only after every file is written.
    """
    command = click.get_current_context().command.name
    config = {"command": command}
    config.update(
        (key, value) for key, value in opts.items()
        if value is not None and key not in ("out", "lp_dump")
    )
    opts["concept"] = Concept(opts["concept"])
    if "deviation_class" in opts:
        dev = opts["deviation_class"]
        dev = DeviationClass(dev) if dev else _default_class(opts["concept"])
        opts["deviation_class"], config["deviation_class"] = dev, dev.value
    if "cost" in opts:
        opts["cost"] = CostKind(opts["cost"])
    try:
        code, result = runner(**opts)
        report = {
            "tool": {"name": "eqdesign", "version": __version__},
            "config": config,
            "result": result,
        }
        if command != "design" and opts.get("out") is not None:
            dump_json(report, opts["out"])
    except ValueError as exc:  # every input error of the package is one
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except OSError as exc:  # inputs are read by load_json, so a write failed
        click.echo(f"error: cannot write {exc.filename}: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # a RuntimeError, or any other failure of the tool
        kind = "" if isinstance(exc, RuntimeError) else f"{type(exc).__name__}: "
        click.echo(f"error: {kind}{exc}", err=True)
        sys.exit(3)
    dump_json(report, sys.stdout)
    sys.exit(code)


def _inputs(command):
    """The GAME and TARGET arguments every subcommand starts with."""
    # click lists the last-applied decorator first, so GAME goes on last.
    for name in ("target", "game"):
        command = click.argument(
            name, type=click.Path(exists=True, dir_okay=False)
        )(command)
    return command


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
_report_out_option = click.option(
    "--out", type=click.Path(dir_okay=False), default=None,
    help="Also write the report to this file.",
)


@click.group()
@click.version_option(version=__version__, prog_name="eqdesign")
def main() -> None:
    """Install-at-equilibrium toolkit: check targets, build witness payoffs,
    design minimal-cost rewards, and verify strictness margins."""


@main.command("check")
@_inputs
@_concept_option
def check_cmd(**opts) -> None:
    """Decide whether TARGET can be made strictly stable in some game."""
    _execute(_run_check, opts)


@main.command("witness")
@_inputs
@_concept_option
@_class_option
@click.option("--bound", type=float, default=1.0, show_default=True,
              help="Payoff magnitude cap for the constructed tensor.")
@click.option("--epsilon", type=float, default=None,
              help="Requested strictness margin; omit for the canonical witness.")
@_report_out_option
def witness_cmd(**opts) -> None:
    """Construct payoffs that make TARGET strictly stable."""
    _execute(_run_witness, opts)


@main.command("design")
@_inputs
@_concept_option
@click.option("--slack", type=float, default=0.0, show_default=True,
              help="Required margin on every deviation constraint.")
@click.option("--bound", type=float, default=1.0, show_default=True,
              help="Reward magnitude cap.")
@click.option("--cost", type=click.Choice([c.value for c in CostKind]),
              default=CostKind.OFFLINE.value, show_default=True,
              help="Objective to optimize.")
@click.option("--baseline", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="Reference reward file for the modification costs.")
@click.option("--max-gap", is_flag=True, default=False,
              help="Ignore the cost and maximize the uniform margin instead.")
@click.option("--lp-dump", type=click.Path(dir_okay=False), default=None,
              help="Write the assembled program to this file.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the designed reward document to this file.")
def design_cmd(**opts) -> None:
    """Find minimal-cost rewards installing TARGET with the given margin."""
    _execute(_run_design, opts)


@main.command("verify")
@_inputs
@click.argument("reward", type=click.Path(exists=True, dir_okay=False))
@_concept_option
@_class_option
@click.option("--epsilon", type=float, default=0.0,
              help="Margin the report should certify (default 0).")
@_report_out_option
def verify_cmd(**opts) -> None:
    """Measure every deviation margin of REWARD at TARGET."""
    _execute(_run_verify, opts)


if __name__ == "__main__":
    main()
