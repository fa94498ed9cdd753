"""Necessity templates: each is built once per process and shared by every
seed, so a sweep must equal one that rebuilds the template at every seed, and
no unit may change what the next one reads."""
from __future__ import annotations

import dataclasses

import pytest

from oracles import necessity_experiment_oracle
from robosync import scenarios
from robosync.algorithms import as_controller
from robosync.checker import check_all
from robosync.engine import Adversary, simulate
from robosync.errors import InputError
from robosync.experiments import necessity_experiment
from robosync.scenarios import NECESSITY_TEMPLATES, bundle_to_json, necessity_template
from robosync.synthesis import candidate_search

TEMPLATES = sorted(NECESSITY_TEMPLATES)


def _bundle(run) -> dict:
    return bundle_to_json(run.scenario, schedule=run.schedule, algorithm=run.algorithm)


@pytest.mark.parametrize("name", TEMPLATES)
def test_necessity_sweep_matches_the_rebuild_every_seed_oracle(name):
    assert necessity_experiment(name, 40) == necessity_experiment_oracle(name, 40)


@pytest.mark.parametrize("name", TEMPLATES)
def test_every_seed_shares_one_frozen_template_run(name):
    run = necessity_template(name, 0)
    assert necessity_template(name, 7) is run
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.target = "stationary"


def test_a_full_unit_leaves_the_shared_template_unchanged():
    replays = 0
    for name in TEMPLATES:
        run = necessity_template(name, 0)
        before = _bundle(run)
        for seed in range(10):
            trace = simulate(run.scenario, run.schedule, as_controller(run.algorithm),
                             Adversary(seed, run.adversary_mode))
            check_all(trace)
            replays += candidate_search(trace).orders_tried
        assert necessity_template(name, 10) is run
        assert _bundle(run) == before == _bundle(NECESSITY_TEMPLATES[name]())
    assert replays > 0  # candidate replays ran on the shared scenarios


def test_an_unknown_template_is_refused_and_not_cached():
    with pytest.raises(InputError) as err:
        necessity_template("nope", 0)
    assert str(err.value) == f"unknown template 'nope'; choose from {TEMPLATES}"
    assert "nope" not in scenarios._TEMPLATE_RUNS
