"""Monte Carlo estimators against exact laws of the iid and rmf walks."""

from fractions import Fraction

import pytest

from rmflab.models import ModelSpec
from rmflab.montecarlo import ExperimentPlan, estimate_sign_change_prob, expected_v_table, moment_table
from rmflab.pinned import ACCEPTANCE_SEED
from rmflab.sieve import squarefree_count

from oracle import exact_rmf_law, iid_expected_v, iid_expected_v_float


def assert_within_4_se(est, exact):
    assert abs(est.point - float(exact)) <= 4 * est.se, (est.point, float(exact), est.se)


def test_iid_closed_form_is_the_enumerated_value_at_16():
    # criterion 4 enumerates all 2^16 iid walks to get this value
    assert iid_expected_v(16) == Fraction(4387, 4096) == 1.071044921875


def test_iid_expected_v_on_the_criterion_5_grid():
    # criterion 5's grid and sample count; its Fractions would be a million bits long at 2^20
    xs = [2**k for k in range(10, 21)]
    plan = ExperimentPlan(master_seed=ACCEPTANCE_SEED, samples=400, workers=2,
                          model=ModelSpec("iid_rademacher"))
    table = expected_v_table(plan, xs)
    for x in xs:
        assert_within_4_se(table[x], iid_expected_v_float(x))


def test_iid_expected_v_matches_closed_form():
    xs = [16.0, 64.0, 256.0, 1024.0]
    plan = ExperimentPlan(master_seed=ACCEPTANCE_SEED, samples=4000,
                          model=ModelSpec("iid_rademacher"))
    table = expected_v_table(plan, xs)
    for x in xs:
        assert_within_4_se(table[x], iid_expected_v(int(x)))
        assert iid_expected_v_float(int(x)) == pytest.approx(float(iid_expected_v(int(x))), rel=1e-13)


@pytest.fixture(scope="module")
def rmf_law_60():
    return exact_rmf_law(60)


def test_rmf_enumeration_at_60(rmf_law_60):
    # E M(x)^2 = Q(x): f(n) f(m) has mean zero unless n = m is squarefree
    assert rmf_law_60.second_moment == 37 == squarefree_count(60)
    assert float(rmf_law_60.expected_v) == pytest.approx(2.759330, abs=1e-6)
    assert float(rmf_law_60.abs_mean) == pytest.approx(4.387191, abs=1e-6)


def test_rmf_estimators_match_enumeration(rmf_law_60):
    plan = ExperimentPlan(master_seed=ACCEPTANCE_SEED, samples=20_000, workers=2)
    assert_within_4_se(expected_v_table(plan, [60.0])[60.0], rmf_law_60.expected_v)
    moments = moment_table(plan, [60.0], [1.0, 2.0])
    assert_within_4_se(moments[(60.0, 1.0)], rmf_law_60.abs_mean)
    assert_within_4_se(moments[(60.0, 2.0)], rmf_law_60.second_moment)


def test_rmf_sign_change_prob_matches_enumeration():
    # the window (10, floor(e * 10)] = (10, 27]; M(u) for u <= 27 depends on 9 primes
    law = exact_rmf_law(27, after=10)
    assert law.change_after == Fraction(147, 256)
    plan = ExperimentPlan(master_seed=ACCEPTANCE_SEED, samples=20_000, workers=2)
    assert_within_4_se(estimate_sign_change_prob(plan, 10, 1), law.change_after)
