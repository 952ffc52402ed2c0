"""Behaviour lock: golden sha256 digests of `run` outputs.

Every bundled config runs every strategy at a small budget with a test
database and two evaluation checkpoints.  The digest covers every output
file except `manifest.json` (which records the config path), so a change
that alters any logged attempt, goal, region, evaluation or memory row
fails here.  The digests hold for a given numpy/BLAS build; a change that
alters outputs on purpose re-records them and says why.
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
    "arm2_demo/sagg_riac": "e1d10938155d319b242ff17530321b3fc62b8fe2f4e81a3431267fc1e15d6010",
    "arm2_demo/sagg_random": "49ebef3c85f84fc3feb76557b4b99e662d9f6372ad26304d28ef3ffbda555101",
    "arm2_demo/actuator_random": "eae824e9d867232e82163e52083c09115753ea2b557100915775032d0c817320",
    "arm2_demo/actuator_riac": "d808ea743f3209919506d61ade3d5d841789a21a31ab3b52c843e838d427f11f",
    "arm15_big/sagg_riac": "62a618cbe4c6fb6d60b48867d63559870a5bcbffcc0014e99461bc1ba6730b42",
    "arm15_big/sagg_random": "2aaa70a55656ed7bd12b49674df5256a5f24528648ba72bacd3fd3eaae47e346",
    "arm15_big/actuator_random": "86e660584bdd797be56260b05c3a175e735b5441323cb82d66f9790955737a2d",
    "arm15_big/actuator_riac": "c791436b3c45d2c9ae1fadc470b97aa1af33c5e424236aae896269bc9f384412",
    "arm15_mid/sagg_riac": "d25cb06198fbf97a7534c0172aedb674bc47815ed373c9f44d8b563e9daaa413",
    "arm15_mid/sagg_random": "2b225591796f961e73e6baac01faa62d22ce712ff2b461f1c02b4e3a09cbed3e",
    "arm15_mid/actuator_random": "706eab62ef3392316e3830fa1639c57833939b45612e3ab1951148d2dc7e2828",
    "arm15_mid/actuator_riac": "9f76e4ccf732a25f63d8a008cf36d38a78612bef16103ef8494d54d3c1f931e8",
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
