import math
import re

import numpy as np
import pytest

from negprob import (
    DimensionMismatch,
    Distribution,
    NotADistribution,
    SimplexSamplerConfig,
    TooFewOutcomes,
    entropy,
    extropy,
    gini_entropy,
    majorizes,
    make_distribution,
    measure_all,
    negate,
    negate_k,
    sample_uniform_simplex,
    trace_negation,
    uniform,
    varentropy,
    varextropy,
)
from negprob.negation import negation_steps


def random_distributions(seed, count, n_lo=2, n_hi=10):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        g = rng.exponential(size=n)
        out.append(make_distribution((g / g.sum()).tolist(), renormalize=True))
    return out


class TestMakeDistribution:
    def test_four_outcomes(self):
        d = make_distribution([0.4, 0.3, 0.2, 0.1])
        assert d.n == 4
        assert d.probs == (0.4, 0.3, 0.2, 0.1)

    def test_renormalize_divides_by_sum(self):
        d = make_distribution([2, 3], renormalize=True)
        assert d.probs == (0.4, 0.6)

    def test_rejects_sum_above_tolerance(self):
        with pytest.raises(NotADistribution, match="sum = 1.1"):
            make_distribution([0.5, 0.6])

    def test_rejects_sum_below_tolerance(self):
        with pytest.raises(NotADistribution):
            make_distribution([0.5, 0.4])

    def test_rejects_single_outcome(self):
        with pytest.raises(TooFewOutcomes):
            make_distribution([1.0])

    def test_rejects_empty(self):
        with pytest.raises(TooFewOutcomes):
            make_distribution([])

    def test_rejects_negative_entry_by_name(self):
        with pytest.raises(NotADistribution, match=r"p\[1\]"):
            make_distribution([0.9, -0.1, 0.2])

    def test_rejects_entry_above_one(self):
        with pytest.raises(NotADistribution):
            make_distribution([1.5, -0.5, 0.0])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NotADistribution):
            make_distribution([float("nan"), 1.0])
        with pytest.raises(NotADistribution):
            make_distribution([float("inf"), 1.0])

    def test_renormalize_does_not_mask_negatives(self):
        with pytest.raises(NotADistribution):
            make_distribution([-1.0, 2.0], renormalize=True)

    def test_zero_entries_are_legal(self):
        d = make_distribution([1.0, 0.0])
        assert d.probs == (1.0, 0.0)

    def test_negative_zero_entry_is_legal(self):
        d = Distribution((-0.0, 1.0))
        assert math.copysign(1.0, d.probs[0]) == -1.0

    @pytest.mark.parametrize("probs, message", [
        ((0.5, float("nan"), 2.0), "p[1] = nan is not finite"),
        ((0.5, float("nan"), 0.5), "p[1] = nan is not finite"),
        ((0.5, 2.0, float("nan")), "p[1] = 2.0 is outside [0, 1]"),
        ((float("nan"), 0.5, 0.5), "p[0] = nan is not finite"),
        ((0.5, 0.5, float("-inf")), "p[2] = -inf is not finite"),
        ((1.5, -0.5, 0.0), "p[0] = 1.5 is outside [0, 1]"),
        ((0.9, 0.2, -0.1), "p[2] = -0.1 is outside [0, 1]"),
        ((0.6, float("inf"), -1.0), "p[1] = inf is not finite"),
    ])
    def test_validation_names_the_first_offender(self, probs, message):
        with pytest.raises(NotADistribution) as info:
            Distribution(probs)
        assert str(info.value) == message

    @pytest.mark.parametrize("values, message", [
        ([0.5, "0.5"], "p[1] = '0.5' is not an int or a float"),
        ([0.5, b"0.5"], "p[1] = b'0.5' is not an int or a float"),
        ([True, False], "p[0] = True is not an int or a float"),
        ([0.5, 0.5, None], "p[2] = None is not an int or a float"),
        ((0.5, [0.5]), "p[1] = [0.5] is not an int or a float"),
        ("0.5", "entries must be a sequence, not str"),
        (b"\x00\x01", "entries must be a sequence, not bytes"),
        (0.5, "entries must be a sequence, not float"),
        (None, "entries must be a sequence, not NoneType"),
        ({0.5: 1, 0.25: 2}, "entries must be a sequence, not dict"),
        ({0.5, 0.25}, "entries must be a sequence, not set"),
        ((x for x in [0.5, 0.5]), "entries must be a sequence, not generator"),
        (np.array(0.5), "entries must be a sequence, not ndarray"),  # has __len__, no length
        ([10**400, 1], "p[0] is an int beyond float range"),
        ([0.5, 2**1024 - 2**970, 2**1024], "p[1] is an int beyond float range"),
        # numpy scalars other than float64 (a float subclass) are named by type.
        (np.array([1, 0]), "p[0] = np.int64(1) is a numpy int64, not a Python int or float"),
        ([0.5, np.float32(0.5)],
         "p[1] = np.float32(0.5) is a numpy float32, not a Python int or float"),
        ([np.True_, 0.0], "p[0] = np.True_ is a numpy bool, not a Python int or float"),
    ])
    @pytest.mark.parametrize("build", [
        make_distribution,
        lambda values: make_distribution(values, renormalize=True),
        Distribution,
    ])
    def test_entries_that_are_not_numbers_are_named(self, build, values, message):
        with pytest.raises(NotADistribution) as info:
            build(values)
        assert str(info.value) == message

    def test_ints_and_numpy_floats_are_entries(self):
        for values in ([1, 0], [np.float64(0.25), 0.75], np.array([0.25, 0.75])):
            d = make_distribution(values)
            assert d == Distribution(values)
            assert all(type(p) is float for p in d.probs)

    def test_renormalize_overflowing_total_is_not_a_distribution(self):
        # fsum of the entries overflows; the input falls through to
        # validation instead of raising OverflowError.
        with pytest.raises(NotADistribution, match=r"p\[0\] = 1e\+308 is outside"):
            make_distribution([1e308, 1e308], renormalize=True)

    def test_renormalize_opposite_infinities_are_not_a_distribution(self):
        with pytest.raises(NotADistribution, match=r"p\[0\] = inf is not finite"):
            make_distribution([float("inf"), float("-inf")], renormalize=True)

    def test_constructed_distribution_revalidates(self):
        for d in random_distributions(seed=11, count=50):
            again = Distribution(d.probs)
            assert again.probs == d.probs

    def test_to_json_is_an_array(self):
        assert make_distribution([0.5, 0.5]).to_json() == "[0.5,0.5]"


@pytest.mark.parametrize("call, name", [
    (entropy, "d"), (gini_entropy, "d"), (extropy, "d"), (varentropy, "d"),
    (varextropy, "d"), (measure_all, "d"), (negate, "d"), (lambda d: negate_k(d, 0), "d"),
    (lambda p: majorizes(p, uniform(2)), "p"), (lambda q: majorizes(uniform(2), q), "q"),
    (negation_steps, "d"), (trace_negation, "d"),
])
@pytest.mark.parametrize("value", [[0.5, 0.5], (0.5, 0.5), None])
def test_functions_of_a_distribution_name_any_other_argument(call, name, value):
    with pytest.raises(NotADistribution) as info:
        call(value)
    assert str(info.value) == f"{name} must be a Distribution, not {type(value).__name__}"


class TestUniform:
    def test_two_outcomes(self):
        assert uniform(2).probs == (0.5, 0.5)

    def test_three_outcomes(self):
        assert uniform(3).probs == (1.0 / 3.0,) * 3

    def test_rejects_one_outcome(self):
        with pytest.raises(TooFewOutcomes):
            uniform(1)

    @pytest.mark.parametrize("n", [3.0, 2.5, "3", True, None])
    def test_rejects_a_count_that_is_not_an_int(self, n):
        with pytest.raises(ValueError, match=f"^n = {re.escape(repr(n))} must be an integer$"):
            uniform(n)


class TestSampler:
    def test_deterministic_per_trial(self):
        cfg = SimplexSamplerConfig(seed=42, n=5, trials=10)
        a = sample_uniform_simplex(cfg, 3)
        b = sample_uniform_simplex(cfg, 3)
        assert a.probs == b.probs

    def test_distinct_trials_differ(self):
        cfg = SimplexSamplerConfig(seed=42, n=5, trials=10)
        a = sample_uniform_simplex(cfg, 1)
        b = sample_uniform_simplex(cfg, 2)
        assert a.probs != b.probs

    def test_order_of_evaluation_is_irrelevant(self):
        cfg = SimplexSamplerConfig(seed=7, n=4, trials=8)
        forward = [sample_uniform_simplex(cfg, t).probs for t in range(8)]
        shuffled = {t: sample_uniform_simplex(cfg, t).probs for t in (6, 0, 3, 7, 1, 5, 2, 4)}
        assert all(shuffled[t] == forward[t] for t in range(8))

    def test_samples_lie_on_the_simplex(self):
        cfg = SimplexSamplerConfig(seed=3, n=6, trials=200)
        for t in range(200):
            d = sample_uniform_simplex(cfg, t)
            assert abs(math.fsum(d.probs) - 1.0) <= 1e-9

    def test_coordinate_means_match_flat_dirichlet(self):
        # Direct Monte-Carlo average: each coordinate of a flat Dirichlet
        # on n=4 has mean 1/4.
        trials = 100_000
        cfg = SimplexSamplerConfig(seed=2026, n=4, trials=trials)
        sums = [0.0, 0.0, 0.0, 0.0]
        for t in range(trials):
            d = sample_uniform_simplex(cfg, t)
            for i, p in enumerate(d.probs):
                sums[i] += p
        for s in sums:
            assert abs(s / trials - 0.25) <= 0.01

    def test_trial_index_out_of_budget(self):
        cfg = SimplexSamplerConfig(seed=0, n=3, trials=5)
        with pytest.raises(ValueError):
            sample_uniform_simplex(cfg, 5)
        with pytest.raises(ValueError):
            sample_uniform_simplex(cfg, -1)

    def test_config_validation(self):
        with pytest.raises(TooFewOutcomes):
            SimplexSamplerConfig(seed=0, n=1, trials=1)
        with pytest.raises(ValueError):
            SimplexSamplerConfig(seed=0, n=2, trials=0)
        with pytest.raises(ValueError):
            SimplexSamplerConfig(seed=-1, n=2, trials=1)
        with pytest.raises(ValueError):
            SimplexSamplerConfig(seed=2**64, n=2, trials=1)

    @pytest.mark.parametrize("field, value", [
        ("seed", "7"), ("seed", True), ("seed", 1.5), ("seed", 7.0),
        ("n", 2.5), ("n", True), ("n", 3.0), ("n", "3"),
        ("trials", 2.5), ("trials", True), ("trials", 2.0), ("trials", "2"),
    ])
    def test_config_fields_must_be_ints_not_bools(self, field, value):
        args = {"seed": 7, "n": 3, "trials": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} = {re.escape(repr(value))} must be an integer$"):
            SimplexSamplerConfig(**args)

    @pytest.mark.parametrize("trial_index", [1.0, True, "1", None])
    def test_trial_index_must_be_an_int_not_a_bool(self, trial_index):
        cfg = SimplexSamplerConfig(seed=3, n=3, trials=2)
        with pytest.raises(
            ValueError, match=f"^trial_index = {re.escape(repr(trial_index))} must be an integer$"
        ):
            sample_uniform_simplex(cfg, trial_index)

    def test_range_messages_are_kept(self):
        with pytest.raises(TooFewOutcomes, match="need at least 2 outcomes, got 1"):
            SimplexSamplerConfig(seed=0, n=1, trials=1)
        with pytest.raises(ValueError, match="trials = 0 must be positive"):
            SimplexSamplerConfig(seed=0, n=2, trials=0)
        with pytest.raises(ValueError, match="is not a 64-bit unsigned integer"):
            SimplexSamplerConfig(seed=2**64, n=2, trials=1)

    def test_valid_inputs_sample_the_pinned_bits(self):
        # The integer rule rejects inputs only, and changes no sample.
        cfg = SimplexSamplerConfig(seed=7, n=5, trials=10)
        assert sample_uniform_simplex(cfg, 3).probs == (
            0.4383053334460021, 0.033838712915935286, 0.171431188639763,
            0.35237432806404867, 0.004050436934250987,
        )
        cfg = SimplexSamplerConfig(seed=2**64 - 1, n=3, trials=2)
        assert sample_uniform_simplex(cfg, 1).probs == (
            0.10879797514434868, 0.7180164861149525, 0.17318553874069892,
        )


class TestMajorizes:
    def test_four_outcome_fixture_majorizes_its_negation(self):
        # Descending prefix sums by hand: p gives 0.4, 0.7, 0.9, 1.0 and
        # negate(p) gives 0.3, 0.5667, 0.8, 1.0; p dominates everywhere.
        p = make_distribution([0.4, 0.3, 0.2, 0.1])
        assert majorizes(p, negate(p)) is True

    def test_everything_majorizes_uniform(self):
        for d in random_distributions(seed=5, count=100):
            assert majorizes(d, uniform(d.n))

    def test_reflexive(self):
        for d in random_distributions(seed=6, count=30):
            assert majorizes(d, d)

    def test_transitive_along_negation_chains(self):
        for d in random_distributions(seed=8, count=50, n_lo=3):
            once = negate(d)
            twice = negate(once)
            assert majorizes(d, once)
            assert majorizes(once, twice)
            assert majorizes(d, twice)

    def test_detects_non_majorization(self):
        p = make_distribution([0.5, 0.3, 0.2])
        q = make_distribution([0.6, 0.2, 0.2])
        assert not majorizes(p, q)
        assert majorizes(q, p)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            majorizes(uniform(3), uniform(4))

