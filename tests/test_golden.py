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
    "arm2_demo/actuator_riac": "d0f3ec9254ce213a7bbd52d0d1b36ec0f247499b12670a78d0a5f62d1de7edde",
    "arm15_big/sagg_riac": "40523c9be2a717b5015370f7051a7280cdf817ad17dfb9d9118fbe70d04171e3",
    "arm15_big/sagg_random": "fd95f16ca9225589f05fdfcbe5f7cba751ed480430626b613820536ececd68ef",
    "arm15_big/actuator_random": "e6b6c2a538c76047254f0c1f165209b136a16f22d9ab92d0b3d59fd16cac52b3",
    "arm15_big/actuator_riac": "15b4e7d24f3a3fa73ca282339f53b787436b7ef944a05eee9efbc9a1babc6148",
    "arm15_mid/sagg_riac": "443e3c54846bccac92781fea6674948b6a01e1b5a750cfe79f55ce7f55457973",
    "arm15_mid/sagg_random": "3d67dd7dc6367eddd38b9034bf882c9e1223059c7b1cc53638e5004e6e91df5f",
    "arm15_mid/actuator_random": "f66a16c9374db21c22055520e839b1e49fdb42cd3e55dfa92fba7cea104970df",
    "arm15_mid/actuator_riac": "2dcb4c89f01e3b30a1993121439d7eda4fd77531e9e3e28a928b2cb33395df4f",
    "map8_mid/sagg_riac": "98f5eda671cde5925bd177cc618141f3b69016a1ebf9dca2f09fa35325acfd66",
    "map8_mid/sagg_random": "7ccaa7ef8d75624dc7d0aa443a2868ed40646db1c6c63615fffd647cb572d04b",
    "map8_mid/actuator_random": "360b289f29cfcef2e3d2e9b4990b908ca5f72b2168cd273adc85309a8e827f4b",
    "map8_mid/actuator_riac": "34ad27f7d2993073db86f71eb5c53aea9e91c5bc96e51ba00fb1cf5e287fc826",
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
COMPARE_GOLDEN = "f77baff78e4debb83956912c171a43f071183d0c6a147d24a66f16b56fae595f"


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
