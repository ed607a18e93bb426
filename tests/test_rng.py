"""Keyed random streams, the normal quantile they are inverted through, and
the 10-d designs' logistic step: both bit for bit scipy.special's."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from pseudolearn import rng as rngmod
from pseudolearn.simulate import expit, xi


class TestStreams:
    def test_same_key_same_draws(self):
        a = rngmod.stream(7, 1, 2).random(16)
        b = rngmod.stream(7, 1, 2).random(16)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = rngmod.stream(7, 1, 2).random(16)
        b = rngmod.stream(7, 1, 3).random(16)
        c = rngmod.stream(8, 1, 2).random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_tags_are_stable(self):
        # sha256-based: must not depend on interpreter hash randomisation
        a = rngmod.stream(0, "tree", 3).random(4)
        b = rngmod.stream(0, "tree", 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, rngmod.stream(0, "fold", 3).random(4))

    def test_derive_seed_range_and_stability(self):
        s1 = rngmod.derive_seed(123, "bwcv")
        s2 = rngmod.derive_seed(123, "bwcv")
        assert s1 == s2
        assert 0 <= s1 < 2**63

    def test_negative_parts_allowed(self):
        assert rngmod.derive_seed(-1, 5) == rngmod.derive_seed(-1, 5)


class TestNormal:
    def test_moments(self):
        g = rngmod.stream(42)
        z = rngmod.normal(g, size=200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_loc_scale_broadcast(self):
        g = rngmod.stream(43)
        scale = np.array([0.0, 2.0])
        z = rngmod.normal(g, size=2, loc=5.0, scale=scale)
        assert z[0] == 5.0
        assert np.isfinite(z[1])

    def test_all_finite_large_sample(self):
        g = rngmod.stream(44)
        z = rngmod.normal(g, size=1_000_000)
        assert np.all(np.isfinite(z))


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def same_bits(ours, ref) -> bool:
    """Equal bit for bit (NaN signs and payloads included), shape and type."""
    return (
        type(ours) is type(ref)
        and np.shape(ours) == np.shape(ref)
        and np.asarray(ours).tobytes() == np.asarray(ref).tobytes()
    )


class TestPinnedStream:
    """The normal stream (STREAM_VERSION 1) and the 10-d design's logistic
    step, pinned to the bits they had when scipy.special computed them."""

    CASES = {
        "seed 0, 1000 draws": (
            lambda: rngmod.normal(rngmod.stream(0), size=1000),
            "2ad8bc8b9a7981cf5f338851596ef9179cc4a8b833c7b1159f003a0fae4cda51",
        ),
        "1-d design noise key, 5000 draws": (
            lambda: rngmod.normal(rngmod.stream(7, "dgp1d", "y"), size=5000),
            "27dc2a0d10e73cc21b2552a9f6cbb27b69f5bb8425a733b6ecee69d6fc42a22a",
        ),
        "3x4 draws with loc": (
            lambda: rngmod.normal(rngmod.stream(123, 4, 5), size=(3, 4), loc=2.5),
            "8b995fd9ab96168f84b002428bdbf61f4f7b0c4a4742c96a44ff2ac6de7d8b98",
        ),
        "array scale": (
            lambda: rngmod.normal(
                rngmod.stream(11, "scale"), size=64, scale=np.linspace(0.0, 3.0, 64)
            ),
            "262ddafd718b6e5521d934487da3149cfd358f8b0504d8852425e1df0d0a3924",
        ),
        "200000 draws": (
            lambda: rngmod.normal(rngmod.stream(99, "big"), size=200_000),
            "5d3f65ff695e968a1d1e5b2f5cfa5c240490151629e4480dd47f8f06522cbfbf",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_normal_draws(self, case):
        draw, want = self.CASES[case]
        assert digest(draw()) == want

    def test_single_draw(self):
        z = rngmod.normal(rngmod.stream(5), loc=1.0, scale=2.0)
        assert type(z) is np.float64
        assert digest(z) == "fa03e2035f8fb8b7586540c40e08d4fa92348e9a5ff27f5e7003add116796d9d"

    def test_xi_grid(self):
        t = np.concatenate(
            [np.linspace(-1.0, 2.0, 30001), [-1e6, -40.0, -35.0, 35.0, 40.0, 1e6, -np.inf, np.inf]]
        )
        assert digest(xi(t)) == "3f6830a58acc2fe905c70921d7b1a7b373d91db6f8a1c41442a08dd685543fc5"
        assert xi(0.25) == 1.1588691048809152 and type(xi(0.25)) is float


_TAIL = st.floats(3.0, 300.0).map(lambda e: 10.0**-e)  # 1e-300 ... 1e-3
_PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    _TAIL,
    _TAIL.map(lambda t: 1.0 - t),
    st.floats(1.0 - 1e-3, 1.0),
    st.sampled_from([0.0, 1.0, 0.5, 1e-300, 5e-324, rngmod._EXP_M2, 1.0 - rngmod._EXP_M2]),
    st.floats(),  # NaN, infinities and everything outside [0, 1]
)


class TestNdtri:
    """The normal quantile equals scipy.special.ndtri bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(arrays(float, st.integers(0, 40), elements=_PROBABILITIES))
    def test_arrays_equal_scipy(self, p):
        assert same_bits(rngmod.ndtri(p), special.ndtri(p))

    @settings(max_examples=300, deadline=None)
    @given(_PROBABILITIES)
    def test_scalars_equal_scipy(self, p):
        assert same_bits(rngmod.ndtri(p), special.ndtri(p))
        assert same_bits(rngmod.ndtri(np.array(p)), special.ndtri(np.array(p)))

    def test_edges(self):
        p = np.array([0.0, 1.0, 0.5, 1e-300, -0.0, -1e-300, 1.0 + 2**-52,
                      -np.inf, np.inf, np.nan, -np.nan])
        assert same_bits(rngmod.ndtri(p), special.ndtri(p))
        assert rngmod.ndtri(0.0) == -np.inf and rngmod.ndtri(1.0) == np.inf
        assert rngmod.ndtri(0.5) == 0.0 and np.isnan(rngmod.ndtri(2.0))
        assert same_bits(rngmod.ndtri(np.empty((0, 3))), special.ndtri(np.empty((0, 3))))

    def test_sweep_equals_scipy(self):
        """A fixed sweep of 1,040,001 values over (0, 1), both tails and
        the branch switches at exp(-2), 1 - exp(-2) and exp(-32)."""
        rng = np.random.default_rng(2008)
        steps = np.arange(-5000, 5000)
        p = np.concatenate([
            rng.random(500_000),
            10.0 ** -rng.uniform(3.0, 300.0, 250_000),
            1.0 - 10.0 ** -rng.uniform(3.0, 16.0, 250_000),
            np.linspace(0.0, 1.0, 10_001),
            rngmod._EXP_M2 + steps * 2.0**-55,
            (1.0 - rngmod._EXP_M2) + steps * 2.0**-53,
            np.exp(-32.0) * (1.0 + steps * 2.0**-52),
        ])
        assert p.size == 1_040_001
        assert same_bits(rngmod.ndtri(p), special.ndtri(p))


# finite values, |x| past 709.78 (where math.exp raises and C's exp is inf),
# infinities and NaN
_LOGISTIC_ARGS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-40.0, 40.0),
    st.floats(709.78, 1e308).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0]),
)


class TestExpit:
    """The logistic step equals scipy.special.expit bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(arrays(float, st.integers(0, 40), elements=_LOGISTIC_ARGS))
    def test_arrays_equal_scipy(self, x):
        assert same_bits(expit(x), special.expit(x))

    @settings(max_examples=300, deadline=None)
    @given(_LOGISTIC_ARGS)
    def test_scalars_equal_scipy(self, x):
        assert same_bits(expit(x), special.expit(x))
        assert same_bits(expit(np.array(x)), special.expit(np.array(x)))

    def test_sweep_equals_scipy(self):
        """A fixed sweep of 1,020,002 values, the overflow edge included."""
        rng = np.random.default_rng(2008)
        x = np.concatenate([
            rng.normal(0.0, 10.0, 500_000),
            rng.uniform(-800.0, 800.0, 500_000),
            np.linspace(-709.8, -709.7, 10_001),
            np.linspace(-40.0, 40.0, 10_001),
        ])
        assert x.size == 1_020_002
        assert same_bits(expit(x), special.expit(x))
        assert same_bits(expit(x.reshape(2, -1)), special.expit(x.reshape(2, -1)))
