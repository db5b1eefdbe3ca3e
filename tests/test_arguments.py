"""Integer arguments: one check for the whole package, booleans never count."""

import pytest

from _corpus import electrified, family_instance, quasitree_setup, small
from gromovlab.electrify import penetration_profile
from gromovlab.embedding import qi_fit
from gromovlab.generators import path
from gromovlab.hyperbolicity import (
    four_point_delta,
    intrinsic_vs_extrinsic,
    quasiconvexity_constant,
)
from gromovlab.projections import axiom_check


def _delta_samples(value):
    four_point_delta(small("cycle-8"), mode="sampled", samples=value, seed=1)


def _qi_fit_pairs(value):
    _, _, eg, _, y = quasitree_setup(2, 3, 12)
    qi_fit(eg, y, basepoint=0, pair_budget=value)


def _axioms_triples(value):
    g, fam = family_instance("rings-2-3-12")
    axiom_check(g, fam, triple_budget=value)


def _penetration_samples(value):
    penetration_profile(electrified(1, 1, 12), L=1.5, samples=value, seed=0)


def _penetration_deep(value):
    penetration_profile(electrified(1, 1, 12), L=1.5, samples=5, seed=0, deep_threshold=value)


def _quasiconvexity_pairs(value):
    quasiconvexity_constant(path(8), range(4), pair_budget=value)


def _distortion_pairs(value):
    intrinsic_vs_extrinsic(path(8), range(4), pair_budget=value)


COUNTS = [
    (_delta_samples, "samples"),
    (_qi_fit_pairs, "pair_budget"),
    (_axioms_triples, "triple_budget"),
    (_penetration_samples, "budget"),
    (_penetration_deep, "deep_threshold"),
    (_quasiconvexity_pairs, "pair_budget"),
    (_distortion_pairs, "pair_budget"),
]


@pytest.mark.parametrize("call,name", COUNTS, ids=[call.__name__[1:] for call, _ in COUNTS])
@pytest.mark.parametrize("value,message", [(True, "integer"), (2.0, "integer"), (0, ">= 1")])
def test_counts_reject_booleans_floats_and_zero(call, name, value, message):
    with pytest.raises(ValueError, match=name) as info:
        call(value)
    assert message in str(info.value)
