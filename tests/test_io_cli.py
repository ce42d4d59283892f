"""File-format and command-line tests.

CLI invocations run through click's test runner against JSON files written
into tmp_path; every report is parsed back and checked for the
tool/config/result envelope and the documented exit codes (0 positive
verdict, 1 negative verdict, 2 input error, 3 tool failure).
"""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdesign import (
    Concept,
    CostKind,
    CostSpec,
    DesignConfig,
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    NormalFormGame,
    RewardFunction,
    build_mg_lp,
    design,
    gamma_cce,
    nfg_as_markov,
)
from eqdesign.cli import main
from eqdesign.io import (
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

from conftest import (
    installable_policy,
    make_rng,
    random_reward,
    random_skeleton,
    three_stage_skeleton,
)

NFG_DOC = {
    "actions": [["heads", "tails"], ["heads", "tails"]],
    "utility": [[1.0, -1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]],
}

CORR_TARGET = {"probs": [0.5, 0.0, 0.0, 0.5]}
UNIFORM_TARGET = {"probs": [0.25, 0.25, 0.25, 0.25]}
PURE_TARGET = {"probs": [1.0, 0.0, 0.0, 0.0]}
# A one-stage reward document; accepted for one-shot and Markov inputs alike.
UNIT_REWARD = {
    "rewards": [[[[1.0, 0.0, 0.0, 1.0]]], [[[1.0, 0.0, 0.0, 1.0]]]],
    "bound": 1.0,
}


def one_stage(game: dict, target: dict) -> tuple[dict, dict]:
    """The one-stage Markov documents of a one-shot game and its target."""
    num_a = len(target["probs"])
    markov = {
        "actions": game["actions"],
        "states": ["s0"],
        "horizon": 1,
        "transitions": [[[[1.0]] * num_a]],
        "initial_dist": [1.0],
    }
    return markov, {"stages": [[target["probs"]]]}


def game_doc(skeleton: MarkovGameSkeleton) -> dict:
    num_a = int(np.prod(skeleton.action_counts))
    return {
        "actions": [list(acts) for acts in skeleton.action_sets],
        "states": list(skeleton.states),
        "horizon": skeleton.horizon,
        "transitions": skeleton.transitions.reshape(
            skeleton.horizon, skeleton.num_states, num_a, skeleton.num_states
        ).tolist(),
        "initial_dist": skeleton.initial_dist.tolist(),
    }


def policy_doc(policy) -> dict:
    stages = np.asarray(policy.stages)
    return {
        "stages": stages.reshape(
            policy.horizon, policy.num_states, -1
        ).tolist()
    }


class TestGameLoading:
    def test_one_shot_document(self):
        game = load_game(NFG_DOC)
        assert isinstance(game, NormalFormGame)
        assert game.action_counts == (2, 2)
        assert game.utility[0, 0, 1] == -1.0
        assert game.action_sets[1] == ("heads", "tails")
        labels = load_game(dict(NFG_DOC, actions=[[0, 1], [True, None]]))
        assert labels.action_sets == (("0", "1"), ("True", "None"))

    def test_markov_document_round_trip(self):
        rng = make_rng("io-game")
        sk = random_skeleton(rng)
        loaded = load_game(game_doc(sk))
        assert isinstance(loaded, MarkovGameSkeleton)
        assert np.allclose(loaded.transitions, sk.transitions, atol=1e-12)
        assert np.allclose(loaded.initial_dist, sk.initial_dist, atol=1e-12)
        assert loaded.states == sk.states

    def test_baseline_reward_field(self):
        rng = make_rng("io-game-base")
        sk = random_skeleton(rng)
        doc = game_doc(sk)
        num_a = int(np.prod(sk.action_counts))
        base = rng.uniform(
            -1.0, 1.0,
            (sk.num_players, sk.horizon, sk.num_states, num_a),
        )
        doc["baseline_reward"] = base.tolist()
        loaded = load_game(doc)
        assert np.allclose(
            loaded.baseline_reward.reshape(base.shape), base, atol=1e-12
        )

    def test_dust_is_clamped_and_renormalized(self):
        doc = dict(NFG_DOC)
        policy = load_policy(
            {"probs": [0.5 + 5e-13, -1e-13, 0.0, 0.5]}, nfg_as_markov(load_game(doc))
        )
        assert np.all(policy.stages >= 0.0)
        assert policy.stages.sum() == pytest.approx(1.0, abs=1e-15)
        assert doc  # untouched input

    def test_genuine_violations_rejected(self):
        sk = nfg_as_markov(load_game(NFG_DOC))
        with pytest.raises(InputFormatError, match="probs"):
            load_policy({"probs": [0.6, -0.1, 0.25, 0.25]}, sk)
        with pytest.raises(InputFormatError, match="probs"):
            load_policy({"probs": [0.6, 0.3, 0.2, 0.2]}, sk)

    def test_bad_rows_named_by_index(self):
        sk = random_skeleton(make_rng("io-bad-row"), max_states=2)
        doc = game_doc(sk)
        trans = np.array(doc["transitions"])
        rows = trans.reshape(-1, sk.num_states)
        rows[len(rows) - 1, 0] = -0.5
        doc["transitions"] = trans.tolist()
        with pytest.raises(
            InputFormatError,
            match=rf"game\.transitions\[{len(rows) - 1}\]: negative",
        ):
            load_game(doc)
        doc = game_doc(sk)
        doc["initial_dist"] = [2.0] + [0.0] * (sk.num_states - 1)
        with pytest.raises(InputFormatError, match=r"game\.initial_dist: sums"):
            load_game(doc)
        pol = policy_doc(installable_policy(make_rng("io-bad-row"), sk))
        stages = np.array(pol["stages"])
        stages.reshape(-1, stages.shape[-1])[-1, 0] = math.nan
        pol["stages"] = stages.tolist()
        last = sk.horizon * sk.num_states - 1
        with pytest.raises(
            InputFormatError, match=rf"target\.stages\[{last}\]: non-finite"
        ):
            load_policy(pol, sk)

    def test_error_messages_name_the_field(self):
        with pytest.raises(InputFormatError, match="actions"):
            load_game({"utility": []})
        with pytest.raises(InputFormatError, match="utility"):
            load_game({"actions": [["a"], ["b"]], "utility": [[1.0]]})
        bad = {
            "actions": [["a", "b"], ["c"]],
            "states": ["s"],
            "horizon": 1,
            "transitions": [[[[1.0], [1.0], [1.0]]]],
            "initial_dist": [1.0],
        }
        with pytest.raises(InputFormatError, match="transitions"):
            load_game(bad)
        bad["transitions"] = [[[[1.0], [1.0]]]]
        bad["horizon"] = 0
        with pytest.raises(InputFormatError, match="horizon"):
            load_game(bad)

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_horizon_rejected(self, flag):
        doc = game_doc(random_skeleton(make_rng("io-bool-horizon")))
        doc["horizon"] = flag
        with pytest.raises(InputFormatError, match=r"game\.horizon"):
            load_game(doc)

    def test_non_finite_utility_rejected(self):
        doc = dict(NFG_DOC)
        doc["utility"] = [[1.0, math.inf, 0.0, 0.0], [0.0] * 4]
        with pytest.raises(InputFormatError, match="non-finite"):
            load_game(doc)


class TestPolicyAndRewardLoading:
    def test_policy_round_trip(self):
        rng = make_rng("io-policy")
        sk = random_skeleton(rng)
        pol = installable_policy(rng, sk)
        loaded = load_policy(policy_doc(pol), sk)
        assert np.allclose(
            np.asarray(loaded.stages), np.asarray(pol.stages), atol=1e-12
        )

    def test_bare_strategy_for_one_stage_games(self):
        game = load_game(NFG_DOC)
        from eqdesign import nfg_as_markov

        sk = nfg_as_markov(game)
        pol = load_policy(CORR_TARGET, sk)
        assert pol.stage(0, 0).probs[0, 0] == 0.5

    @pytest.mark.parametrize("doc", [[1.0, 0.0], 5, "utility", "probs"])
    @pytest.mark.parametrize("load", [
        load_game,
        lambda doc: load_policy(doc, nfg_as_markov(load_game(NFG_DOC))),
        lambda doc: load_policy(doc, random_skeleton(make_rng("io-non-object"))),
        lambda doc: load_reward(doc, load_game(NFG_DOC)),
        lambda doc: load_reward(doc, random_skeleton(make_rng("io-non-object"))),
        lambda doc: load_baseline(doc, load_game(NFG_DOC)),
        lambda doc: load_baseline(doc, random_skeleton(make_rng("io-non-object"))),
    ], ids=[
        "game", "one-shot policy", "Markov policy", "one-shot reward",
        "Markov reward", "one-shot baseline", "Markov baseline",
    ])
    def test_non_object_documents_rejected(self, load, doc):
        # A file that is no object stops in load_json; a library caller's
        # document stops before the loader reads a field, even a string
        # that holds a field's name.
        with pytest.raises(InputFormatError, match=": expected an object"):
            load(doc)

    def test_bare_strategy_rejected_for_markov_games(self):
        rng = make_rng("io-bare")
        sk = random_skeleton(rng)
        if sk.horizon == 1 and sk.num_states == 1:
            pytest.skip("drew a one-stage game")
        with pytest.raises(InputFormatError, match="bare strategy"):
            load_policy({"probs": [1.0]}, sk)

    def test_reward_round_trip_and_bound(self):
        rng = make_rng("io-reward")
        sk = random_skeleton(rng)
        shape = (
            sk.num_players, sk.horizon, sk.num_states,
        ) + sk.action_counts
        reward = RewardFunction(
            rewards=rng.uniform(-2.0, 2.0, shape), bound=2.0
        )
        loaded = load_reward(reward_to_doc(reward), sk)
        assert np.allclose(loaded.rewards, reward.rewards, atol=0)
        assert loaded.bound == 2.0
        doc = reward_to_doc(reward)
        doc["bound"] = 0.5
        with pytest.raises(InputFormatError, match="bound"):
            load_reward(doc, sk)
        doc["bound"] = "big"
        with pytest.raises(InputFormatError, match="bound"):
            load_reward(doc, sk)

    def test_boolean_bound_rejected(self):
        rng = make_rng("io-bool-bound")
        sk = random_skeleton(rng)
        shape = (sk.num_players, sk.horizon, sk.num_states) + sk.action_counts
        doc = reward_to_doc(RewardFunction(rewards=np.zeros(shape), bound=1.0))
        doc["bound"] = True
        with pytest.raises(InputFormatError, match=r"reward\.bound"):
            load_reward(doc, sk)

    def test_baseline_accepts_utility_or_rewards(self):
        # The documents verify reads as its reward, bound optional, in the
        # Markov form's shape (the one a skeleton carries as its baseline).
        game = load_game(NFG_DOC)
        embedded = nfg_as_markov(game).baseline_reward
        upl = load_baseline(utility_to_doc(game.utility), game)
        assert np.allclose(upl, embedded, atol=0)
        flat = game.utility.reshape(2, 1, 1, 4).tolist()
        rpl = load_baseline({"rewards": flat}, game)
        assert np.allclose(rpl, embedded, atol=0)
        # The flat [player][joint action] rewards form is not a reward
        # document of the embedding.
        with pytest.raises(InputFormatError, match="expected \\(2, 1, 1, 4\\)"):
            load_baseline({"rewards": utility_to_doc(game.utility)["utility"]}, game)
        # The embedding carries the loaded one-shot baseline as it is.
        skeleton = nfg_as_markov(game)
        res = design(
            dataclasses.replace(skeleton, baseline_reward=rpl),
            load_policy(CORR_TARGET, skeleton), Concept.CE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.1, bound=1.0),
        )
        assert res.status.value == "optimal"
        rng = make_rng("io-baseline")
        sk = random_skeleton(rng)
        num_a = int(np.prod(sk.action_counts))
        flat = rng.uniform(
            -1.0, 1.0,
            (sk.num_players, sk.horizon, sk.num_states, num_a),
        )
        arr = load_baseline({"rewards": flat.tolist()}, sk)
        assert np.allclose(
            arr, flat.reshape(arr.shape), atol=0
        )


# Floats as json writes them, np.float64 among them, and documents of rows of
# them beside every other kind of value json writes.
JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]),
    st.floats().map(np.float64),
)
JSON_DOCS = st.recursive(
    st.one_of(JSON_FLOATS, st.integers(), st.booleans(), st.none(), st.text()),
    lambda kids: st.one_of(
        st.lists(JSON_FLOATS, min_size=1),
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.dictionaries(st.text(), kids),
    ),
    max_leaves=40,
)


class TestJsonPlumbing:
    def test_dump_is_deterministic(self, tmp_path):
        doc = {"b": [1.0, 2.5], "a": {"z": 1, "k": None}}
        text = dump_json(doc)
        assert text == dump_json(doc)
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        path = tmp_path / "doc.json"
        dump_json(doc, str(path))
        assert load_json(str(path)) == doc

    EDGE_DOCS = [
        {"nan": [1.0, math.nan], "inf": [math.inf, -math.inf], "neg": [-0.0]},
        {"ints": [1, 2], "bools": [True, False], "none": None, "mixed": [1.0, 2]},
        {"tuple": (1.0, 2.5), "tuples": ((0.5,), (1.0, "a"))},
        {"s": ["[", ",", "n", "nan", "[1.0, 2.0]"], "k[,n": "x\ny"},
        {"empty": [], "dict": {}, "nested": [[], [[]], [{}], {"a": []}]},
        {"tiny": [5e-324, 1e-5, 1e16, -1.5e300], "np": [np.float64(0.1), 0.2]},
        {"ints": {10: [1.0, 2.0], 2: {"a": [0.5]}}, "bool": [1.0, True, 2.5]},
    ]

    def test_dump_is_json_dumps_byte_for_byte(self, files, monkeypatch):
        # The file format is json's indented, sorted text: on game, policy,
        # reward and report documents, as the CLI writes them, and on the
        # cases a faster encoder of float rows would have to get right.
        rng = make_rng("dump-json-identity")
        sk = random_skeleton(rng)
        pol = installable_policy(rng, sk)
        docs = [game_doc(sk), policy_doc(pol), reward_to_doc(random_reward(rng, sk))]
        docs += self.EDGE_DOCS
        eqcli = importlib.import_module("eqdesign.cli")
        monkeypatch.setattr(
            eqcli, "dump_json", lambda doc, target=None: docs.append(doc)
        )
        game = files("game.json", docs[0])
        target = files("target.json", docs[1])
        reward = files("reward.json", docs[2])
        for args in (
            ["check", game, target],
            ["witness", game, target, "--bound", "2"],
            ["design", game, target, "--slack", "0.1", "--bound", "2"],
            ["verify", game, target, reward],
        ):
            invoke(args)
        assert len(docs) == len(self.EDGE_DOCS) + 7
        for doc in docs:
            want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            assert dump_json(doc) == want

    @settings(max_examples=150, deadline=None)
    @given(doc=JSON_DOCS)
    def test_dump_is_json_dumps_on_any_document(self, doc):
        assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "bad", [np.int64(1), {1.0, 2.0}, {1: 0.5, "a": 0.5}],
        ids=["np.int64", "set", "mixed-keys"],
    )
    def test_dump_raises_as_json_does(self, bad):
        for doc in (bad, {"row": [1.0, bad]}, {"a": {"b": bad}}):
            with pytest.raises(Exception) as want:
                json.dumps(doc, indent=2, sort_keys=True)
            with pytest.raises(Exception) as got:
                dump_json(doc)
            assert got.type is want.type

    def test_load_errors(self, tmp_path):
        with pytest.raises(InputFormatError, match="cannot read"):
            load_json(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputFormatError, match="invalid JSON"):
            load_json(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(InputFormatError, match="object"):
            load_json(str(arr))


@pytest.fixture
def files(tmp_path):
    def write(name: str, doc: dict) -> str:
        path = tmp_path / name
        dump_json(doc, str(path))
        return str(path)

    return write


def invoke(args):
    return CliRunner().invoke(main, args)


class TestCliCheck:
    def test_installable_target_exits_zero(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        result = invoke(["check", game, target, "--concept", "ce"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["tool"]["name"] == "eqdesign"
        assert report["config"]["concept"] == "ce"
        assert report["result"]["installable"] is True

    def test_uninstallable_target_exits_one(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", UNIFORM_TARGET)
        result = invoke(["check", game, target])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["result"]["installable"] is False
        assert report["result"]["certificate"] is not None

    def test_markov_check_lists_stages(self, files):
        rng = make_rng("cli-check-mg")
        sk = random_skeleton(rng)
        pol = installable_policy(rng, sk)
        game = files("game.json", game_doc(sk))
        target = files("target.json", policy_doc(pol))
        result = invoke(["check", game, target])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        stages = report["result"]["stages"]
        assert len(stages) == sk.horizon * sk.num_states
        assert all(entry["installable"] for entry in stages.values())

    @pytest.mark.parametrize("text", ["[0.5, 0.5]", "5"])
    def test_non_object_file_exits_two(self, files, tmp_path, text):
        game = files("game.json", NFG_DOC)
        target = tmp_path / "target.json"
        target.write_text(text)
        result = invoke(["check", game, str(target)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {target}: expected an object\n"
        assert result.stdout == ""

    def test_precondition_violation_exits_two(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        result = invoke(["check", game, target, "--concept", "ne"])
        assert result.exit_code == 2
        assert "error:" in result.stderr

    @pytest.mark.parametrize("flag", [True, "false"])
    def test_product_key_is_ignored(self, files, flag):
        # Nash's product rule is require's alone; the key changes nothing.
        game = files("game.json", NFG_DOC)
        target = files("target.json", dict(CORR_TARGET, product=flag))
        for concept, code in (("ce", 0), ("ne", 2)):
            result = invoke(["check", game, target, "--concept", concept])
            assert result.exit_code == code, result.output
        assert "stage (h=0, s=0) is not a product strategy" in result.stderr

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_horizon_exits_two(self, files, flag):
        rng = make_rng("cli-bool-horizon")
        sk = random_skeleton(rng)
        doc = game_doc(sk)
        doc["horizon"] = flag
        game = files("game.json", doc)
        target = files("target.json", policy_doc(installable_policy(rng, sk)))
        result = invoke(["check", game, target])
        assert result.exit_code == 2, result.output
        assert "horizon" in result.stderr

    def test_missing_file_exits_two(self, files):
        game = files("game.json", NFG_DOC)
        result = invoke(["check", game, "absent.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("fields, message", [
        ({"actions": [["heads", "tails"], []]},
         ".actions: expected a nonempty list per player"),
        ({"actions": "heads"}, ".actions: expected a nonempty list per player"),
        ({"states": [], "horizon": 1}, ".states: expected a nonempty list"),
        ({"states": "s0", "horizon": 1}, ".states: expected a nonempty list"),
    ])
    def test_malformed_game_fields_exit_two(self, files, fields, message):
        game = files("game.json", dict(NFG_DOC, **fields))
        target = files("target.json", CORR_TARGET)
        result = invoke(["check", game, target])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: {game}{message}\n"

    def test_markov_game_constructor_errors_name_the_file(self, files):
        # The skeleton's own checks, reported with the file they read.
        rng = make_rng("cli-skeleton-errors")
        sk = random_skeleton(rng, max_states=2, max_horizon=2)
        target = files("target.json", policy_doc(installable_policy(rng, sk)))
        num_a = int(np.prod(sk.action_counts))
        rewards = np.zeros((sk.num_players, sk.horizon, sk.num_states, num_a))
        rewards[-1, -1, -1, -1] = math.nan
        game = files("game.json", dict(game_doc(sk), baseline_reward=rewards.tolist()))
        # No players means one empty joint action, which the rows fit.
        empty = files("empty.json", {
            "actions": [], "states": ["s"], "horizon": 1,
            "transitions": [[[[1.0]]]], "initial_dist": [1.0],
        })
        for path, message in (
            (game, "baseline_reward has non-finite entries"),
            (empty, "every player needs a nonempty action set"),
        ):
            result = invoke(["check", path, target])
            assert result.exit_code == 2, result.output
            assert result.stderr == f"error: {path}: {message}\n"


class TestCliWitness:
    def test_canonical_witness(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        result = invoke(["witness", game, target, "--concept", "ce"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["result"]["gamma"] == pytest.approx(1.0, abs=1e-12)
        assert report["result"]["min_gap"] == pytest.approx(1.0, abs=1e-9)
        assert len(report["result"]["utility"]) == 2

    @pytest.mark.parametrize("concept", ["ce", "cce"])
    def test_canonical_witness_builds_one_policy(self, files, monkeypatch, concept):
        # gamma and the witness read the loaded policy, which embeds its
        # stage, instead of a second one-stage policy of the same numbers.
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        built = []
        post_init = MarkovPolicy.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(MarkovPolicy, "__post_init__", counting)
        result = invoke(["witness", game, target, "--concept", concept])
        assert result.exit_code == 0, result.output
        assert len(built) == 1

    def test_canonical_witness_checks_installability_once(self, files, monkeypatch):
        # The witness's stage reports decide ``installable``; gamma reads the
        # same conditional table without a second check.
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        calls = []
        installability = importlib.import_module("eqdesign.installability")
        stage_reports = installability.stage_reports

        def counting(*args):
            calls.append(args)
            return stage_reports(*args)

        for name in ("eqdesign.installability", "eqdesign.witness"):
            monkeypatch.setattr(importlib.import_module(name), "stage_reports", counting)
        result = invoke(["witness", game, target, "--concept", "ce"])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    @pytest.mark.parametrize("concept", ["ce", "cce"])
    def test_canonical_witness_scales_to_bound(self, files, concept):
        # The unit witness times the bound: entries within the cap and the
        # margin bound * gamma.
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        result = invoke(
            ["witness", game, target, "--concept", concept, "--bound", "0.25"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)["result"]
        assert np.max(np.abs(report["utility"])) == pytest.approx(0.25)
        assert report["min_gap"] == pytest.approx(0.25 * report["gamma"])

    def test_uninstallable_exits_one(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", UNIFORM_TARGET)
        result = invoke(["witness", game, target])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["result"]["installable"] is False

    def test_epsilon_witness_and_capacity(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        ok = invoke(
            ["witness", game, target, "--concept", "ce", "--epsilon", "0.25"]
        )
        assert ok.exit_code == 0, ok.output
        report = json.loads(ok.output)
        assert report["result"]["min_gap"] == pytest.approx(0.25, abs=1e-9)
        too_big = invoke(
            ["witness", game, target, "--concept", "ce", "--epsilon", "2.0"]
        )
        assert too_big.exit_code == 1
        report = json.loads(too_big.output)
        assert report["result"]["feasible"] is False
        assert report["result"]["max_epsilon"] == pytest.approx(1.0, abs=1e-9)

    def test_coarse_epsilon_needs_two_supported_actions(self, files):
        # A pure CCE target has margin 1 without --epsilon, but no epsilon
        # witness at any epsilon or class: a negative verdict, not exit 2.
        game = files("game.json", NFG_DOC)
        target = files("target.json", PURE_TARGET)
        canonical = invoke(["witness", game, target, "--concept", "cce"])
        assert canonical.exit_code == 0, canonical.output
        assert json.loads(canonical.output)["result"]["min_gap"] == 1.0
        for extra in (["--epsilon", "0.5"], ["--epsilon", "0"],
                      ["--epsilon", "0.5", "--deviation-class", "never-target"]):
            result = invoke(["witness", game, target, "--concept", "cce"] + extra)
            assert result.exit_code == 1, result.output
            report = json.loads(result.output)["result"]
            assert report["feasible"] is False and report["max_epsilon"] == 0.0
            assert "player 0 has a single supported action" in report["message"]

    def test_nash_witness_on_pure_target(self, files):
        # Without --epsilon the Markov witness pays the stage bound, B on
        # one stage, on the target profile: margin B.  --epsilon 0 pays +-B,
        # margin 2B.
        game = files("game.json", NFG_DOC)
        target = files("target.json", PURE_TARGET)
        for extra, utility, gap in (
            ([], [[1.0, 0.0, 0.0, 0.0]] * 2, 1.0),
            (["--epsilon", "0"], [[1.0, -1.0, -1.0, -1.0]] * 2, 2.0),
        ):
            result = invoke(["witness", game, target, "--concept", "ne"] + extra)
            assert result.exit_code == 0, result.output
            report = json.loads(result.output)["result"]
            assert report["utility"] == utility
            assert report["min_gap"] == gap

    def test_failure_reports_name_the_stage(self, files):
        # One-shot and one-stage Markov epsilon failures give one report.
        reports = []
        for markov in (False, True):
            game_doc_, target_doc = NFG_DOC, CORR_TARGET
            if markov:
                game_doc_, target_doc = one_stage(NFG_DOC, CORR_TARGET)
            game = files("game.json", game_doc_)
            target = files("target.json", target_doc)
            result = invoke(
                ["witness", game, target, "--concept", "ce", "--epsilon", "2"]
            )
            assert result.exit_code == 1, result.output
            reports.append(json.loads(result.output)["result"])
        assert reports[0] == reports[1]
        assert reports[0]["stage"] == [0, 0]
        assert reports[0]["max_epsilon"] == pytest.approx(1.0, abs=1e-12)

    def test_epsilon_witness_beyond_two_stages(self, files):
        # Stage utilities within B / 2 keep every reward of a three-stage
        # epsilon witness in the box, so 0.9 of (B / 2) * gamma is built.
        rng = make_rng("cli-witness-h3")
        sk = three_stage_skeleton(rng)
        pol = installable_policy(rng, sk, allow_pure=False)
        cells = np.ndindex(sk.horizon, sk.num_states)
        eps = 0.9 * min(gamma_cce(pol.stage(h, s)).value for h, s in cells)
        game = files("game.json", game_doc(sk))
        target = files("target.json", policy_doc(pol))
        result = invoke(
            ["witness", game, target, "--concept", "cce", "--bound", "2",
             "--epsilon", repr(eps)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)["result"]
        assert report["min_gap"] >= eps - 1e-9
        assert np.max(np.abs(report["reward"]["rewards"])) <= 2.0

    @pytest.mark.parametrize("concept", ["ce", "cce"])
    def test_zero_epsilon_at_zero_gamma(self, files, concept):
        # Installable with gamma 0: epsilon 0 is a zero utility, not a
        # division by gamma.
        game = files("game.json", NFG_DOC)
        target = files(
            "target.json", {"probs": [0.25, 0.25, 0.25 + 2e-9, 0.25 - 2e-9]}
        )
        result = invoke(
            ["witness", game, target, "--concept", concept, "--epsilon", "0"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)["result"]
        assert report["utility"] == [[0.0] * 4] * 2
        assert report["min_gap"] == 0.0

    def test_markov_witness_reward_document(self, files):
        rng = make_rng("cli-witness-mg")
        sk = random_skeleton(rng)
        pol = installable_policy(rng, sk)
        game = files("game.json", game_doc(sk))
        target = files("target.json", policy_doc(pol))
        result = invoke(["witness", game, target, "--bound", "2.0"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["result"]["min_gap"] > 0.0
        reward = report["result"]["reward"]
        assert reward["bound"] == 2.0
        arr = np.array(reward["rewards"])
        assert np.max(np.abs(arr)) <= 2.0


class TestCliDesign:
    def test_infeasible_target_exits_one(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", UNIFORM_TARGET)
        result = invoke(
            ["design", game, target, "--slack", "0.1", "--bound", "1.0"]
        )
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["result"]["status"] == "infeasible"

    def test_design_writes_artifact_and_baseline_closes_loop(
        self, files, tmp_path
    ):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        out = str(tmp_path / "designed.json")
        first = invoke(
            [
                "design", game, target, "--concept", "ce",
                "--slack", "0.5", "--out", out,
            ]
        )
        assert first.exit_code == 0, first.output
        report = json.loads(first.output)
        assert report["result"]["min_gap"] >= 0.5 - 1e-6
        artifact = load_json(out)
        assert "utility" in artifact
        again = invoke(
            [
                "design", game, target, "--concept", "ce",
                "--slack", "0.5", "--baseline", out,
            ]
        )
        assert again.exit_code == 0, again.output
        report = json.loads(again.output)
        assert report["result"]["objective"] == pytest.approx(0.0, abs=1e-9)

    def test_design_reports_steps_per_phase(self, files):
        game = files("game.json", NFG_DOC)
        for target, code in ((CORR_TARGET, 0), (UNIFORM_TARGET, 1)):
            path = files("target.json", target)
            result = invoke(
                ["design", game, path, "--slack", "0.1", "--bound", "1.0"]
            )
            assert result.exit_code == code, result.output
            report = json.loads(result.output)["result"]
            dual, primal = report["phase_steps"]
            assert dual + primal == report["iterations"]

    def test_tool_failure_exits_three(self, files, monkeypatch):
        # A solver or post-solve check breaking down is no verdict: it must
        # not surface as exit 1 ("infeasible") or as a traceback.
        def broken(*args, **kwargs):
            raise RuntimeError("simplex exceeded 7 pivots")

        monkeypatch.setattr("eqdesign.cli._solve_design", broken)
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        result = invoke(["design", game, target, "--slack", "0.1"])
        assert result.exit_code == 3, result.output
        assert result.exception is None or isinstance(
            result.exception, SystemExit
        )
        assert "error: simplex exceeded 7 pivots" in result.stderr
        assert result.stdout == ""

    def test_dual_pivot_limit_exits_three(self, files, monkeypatch):
        # The CE offline design of matching pennies' diagonal target takes
        # four dual steps; a cap of one is a tool failure, not a verdict.
        monkeypatch.setattr(importlib.import_module("eqdesign.lp"), "MAX_PIVOTS", 1)
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        result = invoke(
            ["design", game, target, "--concept", "ce", "--slack", "0.1"]
        )
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        assert result.stderr == "error: dual simplex exceeded 1 pivots\n"

    def test_missed_margin_is_a_tool_failure(self, files, monkeypatch):
        # The post-solve check is the last word on a designed reward: a
        # margin below the slack raises, in the library and the CLI alike.
        design_module = importlib.import_module("eqdesign.design")
        measure = design_module.check_strict

        def short(*args, **kwargs):
            return dataclasses.replace(measure(*args, **kwargs), min_gap=0.0625)

        monkeypatch.setattr(design_module, "check_strict", short)
        message = "designed reward missed its margin: 0.0625 < 0.25"
        skeleton = nfg_as_markov(load_game(NFG_DOC))
        with pytest.raises(RuntimeError, match=message):
            design(
                skeleton, load_policy(CORR_TARGET, skeleton), Concept.CE,
                CostSpec(CostKind.OFFLINE), DesignConfig(slack=0.25, bound=1.0),
            )
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        result = invoke(
            ["design", game, target, "--concept", "ce", "--slack", "0.25"]
        )
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    def test_max_gap_mode(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        result = invoke(["design", game, target, "--max-gap"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["result"]["achieved_slack"] == pytest.approx(
            1.0, abs=1e-9
        )
        assert report["config"]["max_gap"] is True

    def test_lp_dump(self, files, tmp_path):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        dump = str(tmp_path / "program.lp")
        result = invoke(
            ["design", game, target, "--slack", "0.2", "--lp-dump", dump]
        )
        assert result.exit_code == 0, result.output
        with open(dump, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert text.startswith("minimize")
        assert "subject to" in text

    def test_lp_dump_builds_the_program_once(self, files, tmp_path, monkeypatch):
        # The dumped program is the one solved, built once per call.
        calls = []

        def counting(*args):
            calls.append(args)
            return build_mg_lp(*args)

        for where in ("eqdesign.cli", "eqdesign.design"):
            module = importlib.import_module(where)
            monkeypatch.setattr(module, "build_mg_lp", counting)
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        dump = str(tmp_path / "program.lp")
        result = invoke(
            ["design", game, target, "--concept", "ce", "--slack", "0.2",
             "--lp-dump", dump]
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == 1
        with open(dump, "r", encoding="utf-8") as handle:
            assert handle.read() == build_mg_lp(*calls[0])[0].dump()

    def test_baseline_reads_the_documented_reward_document(self, files):
        # The README's {"rewards": [player][stage][state][joint action]}
        # document, which verify accepts for the same one-shot game, and
        # the utility document design --out writes give one design.
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        utility = [[0.5, 0.0, 0.0, 0.5], [0.25, 0.0, 0.0, 0.25]]
        docs = (
            {"rewards": [[[row]] for row in utility], "bound": 1.0},
            {"utility": utility},
        )
        results = []
        for doc in docs:
            base = files("base.json", doc)
            verified = invoke(["verify", game, target, base, "--concept", "ce"])
            assert verified.exit_code in (0, 1), verified.output
            result = invoke(
                ["design", game, target, "--concept", "ce", "--slack", "0.2",
                 "--baseline", base]
            )
            assert result.exit_code == 0, result.output
            results.append(json.loads(result.output)["result"])
        assert results[0] == results[1]

    def test_lp_dump_uses_baseline(self, files, tmp_path):
        # --baseline replaces the game's utility as the one to modify, in the
        # dumped program as in the design.
        utility = [[0.5, 0.0, 0.0, 0.5], [0.5, 0.0, 0.0, 0.5]]
        target = files("target.json", CORR_TARGET)
        base = files("base.json", {"utility": utility})
        runs = [
            (files("game.json", NFG_DOC), ["--baseline", base]),
            (files("own.json", dict(NFG_DOC, utility=utility)), []),
        ]
        texts = []
        for game, extra in runs:
            dump = str(tmp_path / "program.lp")
            result = invoke(
                ["design", game, target, "--slack", "0.2", "--lp-dump", dump]
                + extra
            )
            assert result.exit_code == 0, result.output
            with open(dump, "r", encoding="utf-8") as handle:
                texts.append(handle.read())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("cost", ["online", "offline"])
    def test_missing_baseline_designs_as_zeros(self, files, tmp_path, cost):
        # A Markov game file without a baseline designs as one whose
        # baseline is all zeros: the same program and the same reward bytes.
        rng = make_rng("cli-zeros-baseline")
        sk = random_skeleton(rng, max_states=2, max_horizon=2)
        game = files("game.json", game_doc(sk))
        target = files("target.json", policy_doc(installable_policy(rng, sk)))
        num_a = int(np.prod(sk.action_counts))
        zeros = np.zeros((sk.num_players, sk.horizon, sk.num_states, num_a))
        base = files("base.json", {"rewards": zeros.tolist()})
        runs = []
        for extra in ([], ["--baseline", base]):
            dump, out = tmp_path / f"p{len(runs)}.lp", tmp_path / f"r{len(runs)}.json"
            result = invoke(
                ["design", game, target, "--cost", cost, "--slack", "0.05",
                 "--bound", "2", "--lp-dump", str(dump), "--out", str(out)]
                + extra
            )
            assert result.exit_code == 0, result.output
            runs.append((
                dump.read_bytes(), out.read_bytes(),
                json.loads(result.output)["result"],
            ))
        assert runs[0] == runs[1]

    def test_non_finite_baseline_names_its_file(self, files):
        # As verify's error names its reward file, design's names the
        # baseline file, on a one-shot and on a Markov game.
        rng = make_rng("cli-nan-baseline")
        sk = random_skeleton(rng, max_states=2, max_horizon=2)
        num_a = int(np.prod(sk.action_counts))
        rewards = np.zeros((sk.num_players, sk.horizon, sk.num_states, num_a))
        rewards[0, 0, 0, 0] = math.nan
        utility = [[math.nan, 0.0, 0.0, 0.5], [0.5, 0.0, 0.0, 0.5]]
        cases = (
            (NFG_DOC, CORR_TARGET, {"utility": utility}),
            (game_doc(sk), policy_doc(installable_policy(rng, sk)),
             {"rewards": rewards.tolist()}),
        )
        for game_json, target_json, base_json in cases:
            game = files("game.json", game_json)
            target = files("target.json", target_json)
            base = files("base.json", base_json)
            result = invoke(["design", game, target, "--baseline", base])
            assert result.exit_code == 2, result.output
            assert result.stderr == (
                f"error: {base}: baseline_reward has non-finite entries\n"
            )

    def test_markov_design_reward_artifact(self, files, tmp_path):
        rng = make_rng("cli-design-mg")
        sk = random_skeleton(rng, max_states=2, max_horizon=2)
        pol = installable_policy(rng, sk, allow_pure=False)
        game = files("game.json", game_doc(sk))
        target = files("target.json", policy_doc(pol))
        out = str(tmp_path / "reward.json")
        result = invoke(
            [
                "design", game, target, "--slack", "0.0001",
                "--bound", "2.0", "--cost", "online", "--out", out,
            ]
        )
        assert result.exit_code == 0, result.output
        artifact = load_json(out)
        loaded = load_reward(artifact, sk)
        assert loaded.bound == 2.0


class TestCliVerify:
    def test_witness_reward_verifies_strict(self, files, tmp_path):
        rng = make_rng("cli-verify-mg")
        sk = random_skeleton(rng)
        pol = installable_policy(rng, sk)
        game = files("game.json", game_doc(sk))
        target = files("target.json", policy_doc(pol))
        wit = invoke(["witness", game, target])
        assert wit.exit_code == 0, wit.output
        reward = files(
            "reward.json", json.loads(wit.output)["result"]["reward"]
        )
        result = invoke(["verify", game, target, reward])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["result"]["strict"] is True
        assert report["result"]["min_gap"] > 0.0
        assert report["result"]["gaps"]
        assert report["config"]["epsilon"] == 0.0

    def test_zero_reward_is_not_strict(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        reward = files(
            "reward.json", {"utility": [[0.0] * 4, [0.0] * 4]}
        )
        result = invoke(["verify", game, target, reward])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["result"]["min_gap"] == 0.0
        assert report["result"]["strict"] is False

    def test_utility_document_without_bound(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        reward = files(
            "reward.json",
            {"utility": [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]]},
        )
        result = invoke(
            ["verify", game, target, reward, "--concept", "ce"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["result"]["min_gap"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bound", [None, [1], True])
    def test_utility_bound_must_be_a_number(self, files, bound):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        reward = files(
            "reward.json",
            {"utility": [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]], "bound": bound},
        )
        result = invoke(["verify", game, target, reward, "--concept", "ce"])
        assert result.exit_code == 2, result.output
        assert f"{reward}.bound: expected a number" in result.stderr

    def test_utility_entries_must_be_numbers(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        reward = files(
            "reward.json", {"utility": [["x", 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]]}
        )
        result = invoke(["verify", game, target, reward, "--concept", "ce"])
        assert result.exit_code == 2, result.output
        assert f"{reward}.utility: not numeric" in result.stderr

    def test_utility_shape_and_bound_errors_exit_two(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        for doc, field in [
            ({"utility": [[1.0, 0.0, 0.0]]}, ".utility: shape"),
            ({"utility": [[3.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]], "bound": 1},
             ": reward magnitude"),
        ]:
            reward = files("reward.json", doc)
            result = invoke(["verify", game, target, reward, "--concept", "ce"])
            assert result.exit_code == 2, result.output
            assert f"{reward}{field}" in result.stderr

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exits_two(self, files, epsilon):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        reward = files("reward.json", UNIT_REWARD)
        result = invoke(["verify", game, target, reward, "--epsilon", epsilon])
        assert result.exit_code == 2, result.output
        assert "must be finite" in result.stderr
        assert result.stdout == ""

    def test_epsilon_gate(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        reward = files(
            "reward.json",
            {"utility": [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]]},
        )
        result = invoke(
            [
                "verify", game, target, reward,
                "--concept", "ce", "--epsilon", "1.5",
            ]
        )
        assert result.exit_code == 1


class TestCliEnvelope:
    def test_output_bytes_are_deterministic(self, files):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        args = ["witness", game, target, "--concept", "ce"]
        assert invoke(args).output == invoke(args).output

    def test_unexpected_exception_exits_three(self, files, monkeypatch):
        # An exception that is no input error is a failure of the tool: exit
        # 3 with a message, not a traceback's exit 1, the negative verdict.
        def broken(*args, **kwargs):
            raise IndexError("index 7 is out of bounds")

        monkeypatch.setattr("eqdesign.cli.check_markov", broken)
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        result = invoke(["check", game, target])
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        assert result.stderr == "error: IndexError: index 7 is out of bounds\n"

    def test_version(self):
        result = invoke(["--version"])
        assert result.exit_code == 0
        assert "eqdesign" in result.output

    def test_out_option_duplicates_report(self, files, tmp_path):
        game = files("game.json", NFG_DOC)
        target = files("target.json", CORR_TARGET)
        out = str(tmp_path / "report.json")
        result = invoke(
            ["witness", game, target, "--concept", "ce", "--out", out]
        )
        assert result.exit_code == 0
        assert load_json(out) == json.loads(result.output)

    @pytest.mark.parametrize(
        "args",
        [
            ["design", "--concept", "ce", "--slack", "0.3", "--out"],
            ["design", "--concept", "ce", "--slack", "0.3", "--lp-dump"],
            ["witness", "--concept", "ce", "--out"],
            ["verify", "--concept", "ce", "--out"],
        ],
        ids=["design-out", "design-lp-dump", "witness-out", "verify-out"],
    )
    def test_unwritable_output_is_an_input_error(self, files, tmp_path, args):
        # Exit 2 with no report, not a traceback's exit 1 (the negative
        # verdict), and not after a positive report is already printed.
        command, options = args[0], args[1:]
        inputs = [files("game.json", NFG_DOC), files("target.json", CORR_TARGET)]
        if command == "verify":
            inputs.append(files("reward.json", UNIT_REWARD))
        path = str(tmp_path / "missing" / "out.json")
        result = invoke([command] + inputs + options + [path])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: cannot write {path}: ")


# witness on a one-shot game and on its one-stage Markov document exits the
# same way: a target the concept cannot install (or carry the margin on) is
# a negative verdict, exit 1 with a report; a deviation class the concept
# does not cover, or a correlated Nash target, is an input error, exit 2.
WITNESS_PARITY_CASES = [
    (UNIFORM_TARGET, ["--concept", "cce", "--epsilon", "0.1"], 1),
    (UNIFORM_TARGET, ["--concept", "ce", "--epsilon", "0.1"], 1),
    (UNIFORM_TARGET, ["--concept", "ne"], 1),
    (UNIFORM_TARGET, ["--concept", "ne", "--epsilon", "0.5"], 1),
    (PURE_TARGET, ["--concept", "cce", "--epsilon", "0.1"], 1),
    (PURE_TARGET, ["--concept", "ne", "--epsilon", "3"], 1),
    (CORR_TARGET, ["--concept", "ce", "--epsilon", "2"], 1),
    (
        CORR_TARGET,
        ["--concept", "ce", "--epsilon", "0.01", "--deviation-class", "unrestricted"],
        2,
    ),
    (
        PURE_TARGET,
        ["--concept", "ne", "--epsilon", "0.5", "--deviation-class", "unrestricted"],
        2,
    ),
    (CORR_TARGET, ["--concept", "ne"], 2),
    # Without --epsilon a Nash witness is the Markov one, which measures
    # unrestricted deviations too.
    (PURE_TARGET, ["--concept", "ne", "--deviation-class", "unrestricted"], 0),
    (CORR_TARGET, ["--concept", "ne", "--epsilon", "0.5"], 2),
    # A deviation class the concept cannot measure is an input error on
    # either kind of game, canonical or epsilon witness alike.
    (CORR_TARGET, ["--concept", "cce", "--deviation-class", "never-recommended"], 2),
    (
        CORR_TARGET,
        ["--concept", "cce", "--deviation-class", "never-recommended", "--epsilon", "0.1"],
        2,
    ),
    (CORR_TARGET, ["--concept", "ce", "--deviation-class", "never-target"], 2),
    (PURE_TARGET, ["--concept", "ne", "--deviation-class", "never-recommended"], 2),
    (
        PURE_TARGET,
        ["--concept", "ne", "--deviation-class", "never-recommended", "--epsilon", "0.5"],
        2,
    ),
]


# Witnesses that both forms build: the one-shot report's ``utility`` is the
# one-stage report's stage-0, state-0 reward, and the two margins are equal.
WITNESS_OUTPUT_CASES = [
    (PURE_TARGET, ["--concept", "ne"]),
    (PURE_TARGET, ["--concept", "ne", "--epsilon", "0.5"]),
    (CORR_TARGET, ["--concept", "ce", "--bound", "2"]),
    (CORR_TARGET, ["--concept", "ce", "--bound", "2", "--epsilon", "0.5"]),
    (CORR_TARGET, ["--concept", "cce", "--bound", "2"]),
    (CORR_TARGET, ["--concept", "cce", "--bound", "2", "--epsilon", "0.25"]),
]


class TestCliWitnessParity:
    @pytest.mark.parametrize(
        "target,args", WITNESS_OUTPUT_CASES,
        ids=[f"{case[0]['probs']} {' '.join(case[1])}" for case in WITNESS_OUTPUT_CASES],
    )
    def test_same_witness(self, files, target, args):
        reports = []
        for game_doc_, target_doc in ((NFG_DOC, target), one_stage(NFG_DOC, target)):
            game = files("game.json", game_doc_)
            path = files("target.json", target_doc)
            result = invoke(["witness", game, path] + args)
            assert result.exit_code == 0, result.output
            reports.append(json.loads(result.stdout)["result"])
        one_shot, markov = reports
        rewards = markov["reward"]["rewards"]
        assert one_shot["utility"] == [player[0][0] for player in rewards]
        assert one_shot["min_gap"] == markov["min_gap"]

    @pytest.mark.parametrize("markov", [False, True], ids=["one-shot", "markov"])
    @pytest.mark.parametrize(
        "target,args,code", WITNESS_PARITY_CASES,
        ids=[f"{case[0]['probs']} {' '.join(case[1])}" for case in WITNESS_PARITY_CASES],
    )
    def test_same_exit_code(self, files, markov, target, args, code):
        game_doc_, target_doc = NFG_DOC, target
        if markov:
            game_doc_, target_doc = one_stage(NFG_DOC, target)
        game = files("game.json", game_doc_)
        path = files("target.json", target_doc)
        result = invoke(["witness", game, path] + args)
        assert result.exit_code == code, result.output
        if code == 2:
            assert result.stdout == ""
            assert "error:" in result.stderr
        elif code == 0:
            assert json.loads(result.stdout)["result"]["min_gap"] > 0.0
        else:
            report = json.loads(result.stdout)["result"]
            assert False in (report.get("feasible"), report.get("installable"))


# Every subcommand's whole ``config`` block: options that were passed, the
# defaults of those that were not, the concept's default deviation class,
# and never the ``--out`` or ``--lp-dump`` paths.
CONFIG_CASES = [
    (["check"], CORR_TARGET, {"concept": "cce"}),
    (["check", "--concept", "ce"], CORR_TARGET, {"concept": "ce"}),
    (
        ["witness"],
        CORR_TARGET,
        {"concept": "cce", "deviation_class": "unrestricted", "bound": 1.0},
    ),
    (
        ["witness", "--concept", "ce"],
        CORR_TARGET,
        {"concept": "ce", "deviation_class": "never-recommended", "bound": 1.0},
    ),
    (
        ["witness", "--concept", "ne"],
        PURE_TARGET,
        {"concept": "ne", "deviation_class": "never-target", "bound": 1.0},
    ),
    (
        [
            "witness", "--concept", "ce", "--epsilon", "0.25", "--bound", "2",
            "--deviation-class", "never-recommended", "--out", "{out}",
        ],
        CORR_TARGET,
        {
            "concept": "ce", "deviation_class": "never-recommended",
            "bound": 2.0, "epsilon": 0.25,
        },
    ),
    (
        ["design"],
        CORR_TARGET,
        {
            "concept": "cce", "slack": 0.0, "bound": 1.0, "cost": "offline",
            "max_gap": False,
        },
    ),
    (
        [
            "design", "--concept", "ce", "--slack", "0.1", "--bound", "2",
            "--cost", "online", "--max-gap", "--baseline", "{base}",
            "--lp-dump", "{dump}", "--out", "{out}",
        ],
        CORR_TARGET,
        {
            "concept": "ce", "slack": 0.1, "bound": 2.0, "cost": "online",
            "max_gap": True, "baseline": "{base}",
        },
    ),
    (
        ["verify", "{reward}"],
        CORR_TARGET,
        {
            "reward": "{reward}", "concept": "cce",
            "deviation_class": "unrestricted", "epsilon": 0.0,
        },
    ),
    (
        ["verify", "{reward}", "--concept", "ce", "--epsilon", "0.5"],
        CORR_TARGET,
        {
            "reward": "{reward}", "concept": "ce",
            "deviation_class": "never-recommended", "epsilon": 0.5,
        },
    ),
    (
        [
            "verify", "{reward}", "--concept", "ne",
            "--deviation-class", "unrestricted", "--out", "{out}",
        ],
        PURE_TARGET,
        {
            "reward": "{reward}", "concept": "ne",
            "deviation_class": "unrestricted", "epsilon": 0.0,
        },
    ),
]


class TestCliConfig:
    @pytest.mark.parametrize("markov", [False, True], ids=["one-shot", "markov"])
    @pytest.mark.parametrize(
        "args,target,expected", CONFIG_CASES,
        ids=[" ".join(case[0]) for case in CONFIG_CASES],
    )
    def test_config_block(self, files, tmp_path, markov, args, target, expected):
        game_doc_, target_doc = NFG_DOC, target
        base = {"utility": [[0.0] * 4, [0.0] * 4]}
        if markov:
            game_doc_, target_doc = one_stage(NFG_DOC, target)
            base = UNIT_REWARD
        paths = {
            "game": files("game.json", game_doc_),
            "target": files("target.json", target_doc),
            "reward": files("reward.json", UNIT_REWARD),
            "base": files("base.json", base),
            "out": str(tmp_path / "out.json"),
            "dump": str(tmp_path / "program.lp"),
        }
        command, rest = args[0], [arg.format(**paths) for arg in args[1:]]
        result = invoke([command, paths["game"], paths["target"]] + rest)
        assert result.exit_code in (0, 1), result.output
        config = json.loads(result.output)["config"]
        want = {
            "command": command, "game": paths["game"], "target": paths["target"]
        }
        want.update(
            {key: value.format(**paths) if isinstance(value, str) else value
             for key, value in expected.items()}
        )
        assert config == want
