"""Behaviour lock: golden sha256 digests of `run` and `compare` outputs.

Every bundled config runs every strategy at a small budget with a test
database and two evaluation checkpoints.  The digest covers every output
file except `manifest.json` (which records the config path), so a change
that alters any logged attempt, goal, region, evaluation or memory row
fails here.  One `compare` of three strategies on the 2-DOF arm is pinned
the same way, over its three CSV tables.  The digests hold for a given
numpy/BLAS build; a change that alters outputs on purpose re-records them
and says why.
"""
import dataclasses
import hashlib
import json

import pytest

from goalbabbling.cli import main
from goalbabbling.config import STRATEGIES, bundled_config_path, load_config

# At 500 steps the memory is an unindexed tail only; at 2,000 it is a
# kd-tree plus a tail.
BUDGET = 2000
CHECKPOINTS = "500,2000"
CONFIGS = ("arm2_demo", "arm15_big", "arm15_mid", "map8_mid")

GOLDEN = {
    "arm2_demo/sagg_riac": "b5b6eae4cbcb61f27c156a05682790774865adbb262aa4244cfc69095aba5cf1",
    "arm2_demo/sagg_random": "1dcd16eccc51768ee62d6b0c50302795257176991c3f765fbce2e82327b04a1e",
    "arm2_demo/actuator_random": "e8d370f78db15442ebca21ff29d2242862187e31900e6e7bf9d6afdcef204298",
    "arm2_demo/actuator_riac": "3bb0a29b1ce0b7e98599fd1ad7da13890925f2b835d8a0f2a397b1b3d70c8c93",
    "arm15_big/sagg_riac": "40523c9be2a717b5015370f7051a7280cdf817ad17dfb9d9118fbe70d04171e3",
    "arm15_big/sagg_random": "fd95f16ca9225589f05fdfcbe5f7cba751ed480430626b613820536ececd68ef",
    "arm15_big/actuator_random": "e6b6c2a538c76047254f0c1f165209b136a16f22d9ab92d0b3d59fd16cac52b3",
    "arm15_big/actuator_riac": "033a71b4f7c1a6e86e08d9b56c0033bb2870b9fff6d5b7dc3f9033ac0ece569d",
    "arm15_mid/sagg_riac": "443e3c54846bccac92781fea6674948b6a01e1b5a750cfe79f55ce7f55457973",
    "arm15_mid/sagg_random": "3d67dd7dc6367eddd38b9034bf882c9e1223059c7b1cc53638e5004e6e91df5f",
    "arm15_mid/actuator_random": "f66a16c9374db21c22055520e839b1e49fdb42cd3e55dfa92fba7cea104970df",
    "arm15_mid/actuator_riac": "8f5beeb9c957e17a881eb6c8c2562e6eac8d937393e889bd63b7a7ad276f5d86",
    "map8_mid/sagg_riac": "98f5eda671cde5925bd177cc618141f3b69016a1ebf9dca2f09fa35325acfd66",
    "map8_mid/sagg_random": "7ccaa7ef8d75624dc7d0aa443a2868ed40646db1c6c63615fffd647cb572d04b",
    "map8_mid/actuator_random": "360b289f29cfcef2e3d2e9b4990b908ca5f72b2168cd273adc85309a8e827f4b",
    "map8_mid/actuator_riac": "f33d27e2d3db9e58a04b85e48cff6e223b48a0ce0650b2ace9b464200ce31f1b",
}


def _digest(out) -> str:
    lines = [
        f"{f.name}:{hashlib.sha256(f.read_bytes()).hexdigest()}\n"
        for f in sorted(out.iterdir())
        if f.name != "manifest.json"
    ]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", CONFIGS)
def test_run_outputs_match_golden_digest(name, strategy, tmp_path):
    config = dataclasses.replace(load_config(bundled_config_path(name), seed=7, budget=BUDGET), strategy=strategy)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    db = tmp_path / "db.csv"
    assert main(["testdb", "--config", str(path), "--count", "20", "--seed", "999983", "--out", str(db)]) == 0
    out = tmp_path / "run"
    args = ["run", "--config", str(path), "--out", str(out), "--checkpoints", CHECKPOINTS, "--testdb", str(db)]
    assert main(args) == 0
    assert len((out / "evaluations.csv").read_text().splitlines()) == 3
    assert _digest(out) == GOLDEN[f"{name}/{strategy}"]


# `compare` outputs: goal babbling against motor babbling on the 2-DOF arm.
COMPARE_STRATEGIES = ("sagg_riac", "sagg_random", "actuator_riac")
COMPARE_GOLDEN = "a935e6882c076386a09469fe0913de4ccafdee31412028fb64552ed3a5ee5011"


def test_compare_outputs_match_golden_digest(tmp_path):
    paths = []
    for strategy in COMPARE_STRATEGIES:
        config = dataclasses.replace(
            load_config(bundled_config_path("arm2_demo"), budget=1000), strategy=strategy, burn_in_goals=10
        )
        path = tmp_path / f"{strategy}.json"
        path.write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True))
        paths.append(str(path))
    out = tmp_path / "compare"
    args = ["compare", "--configs", *paths, "--seeds", "1,2,3", "--checkpoints", "500,1000", "--db-count", "10"]
    assert main(args + ["--out", str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == ["curves.csv", "fraction.csv", "manifest.json", "significance.csv"]
    assert _digest(out) == COMPARE_GOLDEN
