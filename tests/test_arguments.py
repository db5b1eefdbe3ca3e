"""Integer and real arguments, seeds included: one check each for the whole
package, booleans never count."""

import pytest

from _corpus import electrified, family_instance, quasitree_setup, small
from gromovlab.electrify import penetration_profile
from gromovlab.embedding import qi_fit
from gromovlab.hyperbolicity import four_point_delta
from gromovlab.projections import axiom_check
from gromovlab.quasitree import build_quasitree


def _delta_samples(value):
    four_point_delta(small("cycle-8"), mode="sampled", samples=value, seed=1)


def _qi_fit_pairs(value):
    _, _, eg, _, y = quasitree_setup(2, 3, 12)
    qi_fit(eg, y, basepoint=0, pair_budget=value)


def _penetration_samples(value):
    penetration_profile(electrified(1, 1, 12), L=1.5, samples=value, seed=0)


def _penetration_deep(value):
    penetration_profile(electrified(1, 1, 12), L=1.5, samples=5, seed=0, deep_threshold=value)


COUNTS = [
    (_delta_samples, "samples"),
    (_qi_fit_pairs, "pair_budget"),
    (_penetration_samples, "budget"),
    (_penetration_deep, "deep_threshold"),
]


@pytest.mark.parametrize("call,name", COUNTS, ids=[call.__name__[1:] for call, _ in COUNTS])
@pytest.mark.parametrize("value,message", [(True, "integer"), (2.0, "integer"), (0, ">= 1")])
def test_counts_reject_booleans_floats_and_zero(call, name, value, message):
    with pytest.raises(ValueError, match=name) as info:
        call(value)
    assert message in str(info.value)


def _delta_seed(value):
    four_point_delta(small("cycle-8"), mode="sampled", samples=10, seed=value)


def _exact_delta_seed(value):
    four_point_delta(small("cycle-8"), seed=value)


def _penetration_seed(value):
    penetration_profile(electrified(1, 1, 12), L=1.5, samples=5, seed=value)


def _qi_fit_seed(value):
    _, _, eg, _, y = quasitree_setup(2, 3, 12)
    qi_fit(eg, y, basepoint=0, pair_budget=5, seed=value)


SEEDS = [
    _delta_seed,
    _exact_delta_seed,
    _penetration_seed,
    _qi_fit_seed,
]


@pytest.mark.parametrize("call", SEEDS, ids=[call.__name__[1:] for call in SEEDS])
@pytest.mark.parametrize(
    "value,message", [(True, "integer"), (1.5, "integer"), (-5.5, "integer"), (-1, ">= 0")]
)
def test_seeds_reject_booleans_floats_and_negatives(call, value, message):
    with pytest.raises(ValueError, match="seed") as info:
        call(value)
    assert message in str(info.value)


# the calls that draw: without a seed, each call would draw differently
DRAWING = [_delta_seed, _penetration_seed, _qi_fit_seed]


@pytest.mark.parametrize("call", DRAWING, ids=[call.__name__[1:] for call in DRAWING])
def test_seeds_of_sampled_work_reject_none(call):
    with pytest.raises(ValueError, match="seed"):
        call(None)


def _penetration_quality(value):
    penetration_profile(electrified(1, 1, 12), L=value, samples=5, seed=0)


def _axioms_theta(value):
    g, fam = family_instance("rings-2-3-12")
    axiom_check(g, fam, theta=value)


def _quasitree_theta(value):
    g, fam = family_instance("rings-2-3-12")
    build_quasitree(g, fam, value)


REALS = [
    (_penetration_quality, "quality L"),
    (_axioms_theta, "theta"),
    (_quasitree_theta, "theta"),
]


@pytest.mark.parametrize("call,name", REALS, ids=[call.__name__[1:] for call, _ in REALS])
@pytest.mark.parametrize(
    "value,message",
    [(float("nan"), "finite"), (float("inf"), "finite"), (True, "real number")],
    ids=["nan", "inf", "True"],
)
def test_reals_reject_booleans_and_non_finite_values(call, name, value, message):
    with pytest.raises(ValueError, match=name) as info:
        call(value)
    assert message in str(info.value)
