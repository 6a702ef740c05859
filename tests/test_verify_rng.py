import re

import pytest

from hyplegendre import verify
from hyplegendre.errors import InvalidParams

from hyplegendre.rng import SplitMix64, draw_nondegenerate, draw_ode_params
from hyplegendre.verify import SUITE_NAMES, run_all, run_suite


class TestSplitMix64:
    def test_known_vector(self):
        # canonical first output of the reference implementation at seed 0
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_known_sequence(self):
        rng = SplitMix64(0)
        got = [rng.next_u64() for _ in range(3)]
        assert got == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_determinism(self):
        a = SplitMix64(1234567)
        b = SplitMix64(1234567)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_uniform_range(self):
        rng = SplitMix64(99)
        for _ in range(1000):
            x = rng.uniform(-2.0, 3.0)
            assert -2.0 <= x < 3.0

    def test_index_range(self):
        rng = SplitMix64(5)
        seen = {rng.index(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}


class TestDraws:
    def test_raw_draw_valid(self):
        rng = SplitMix64(17)
        for _ in range(50):
            p = draw_ode_params(rng)
            assert p.xi1 < p.xi2

    def test_nondegenerate_margins(self):
        rng = SplitMix64(31)
        for _ in range(25):
            p, exps = draw_nondegenerate(rng)
            assert not exps.mu1.is_complex and not exps.mu2.is_complex
            assert exps.mu1.second - exps.mu1.first >= 0.04
            assert exps.mu2.second - exps.mu2.first >= 0.04

    def test_draws_reproducible(self):
        a, _ = draw_nondegenerate(SplitMix64(77))
        b, _ = draw_nondegenerate(SplitMix64(77))
        assert a == b

    # lam of the first 20 accepted draws per seed, which every verify case
    # rests on; _pair_safe rejected 33 of the 73 pairs it saw on the way
    PINNED_LAM = {
        42: ["0x1.6d1017a3c1c10p+2", "0x1.1d5b1fc064480p+1", "0x1.07480c6240922p+2",
             "0x1.40b3940a5fde8p+1", "0x1.84ab50d938504p+1", "0x1.59030a9ccba5bp+1",
             "0x1.72c2ad2f7f0e7p+1", "0x1.b6a421648c558p+2", "0x1.8f2f28674cc05p+1",
             "0x1.a12a103f7f75cp+1", "0x1.56333def63003p+2", "0x1.288123afe470cp+0",
             "0x1.7f3ce35c1fb4bp+2", "0x1.6e332f7b35efbp+0", "0x1.5299404bb52d2p+2",
             "0x1.658b24b00f812p+1", "0x1.7220262615f0ep+2", "0x1.99fe669c50e1cp-1",
             "0x1.bb7627f529c0cp+2", "0x1.f1522c79e0954p-1"],
        7: ["0x1.a5096a0bb8deap+2", "0x1.574d10c3b2cd3p+1", "0x1.1b06028343952p+2",
            "0x1.889e0dea9a91ap+2", "0x1.9bc52af1fe968p+2", "0x1.b65f639399be7p+1",
            "0x1.1b04632996804p+0", "0x1.b0478641bd35ep+2", "0x1.4572d20dc3476p+1",
            "0x1.b1f4dd9543af6p+2", "0x1.6d1e69ada474bp+2", "0x1.1939e19804f33p+1",
            "0x1.4c665a9f6c335p+2", "0x1.d0fa5d0de4f52p+1", "0x1.6357fa877f47bp+2",
            "0x1.4a92722b2f522p+1", "0x1.2ee8d95847574p+2", "0x1.3cb8eae009defp+1",
            "0x1.66c7dd8bc9d26p+1", "0x1.1b424a200029cp+2"],
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_LAM))
    def test_accepted_draws_pinned(self, seed):
        rng = SplitMix64(seed)
        got = [draw_nondegenerate(rng)[0].lam.hex() for _ in range(20)]
        assert got == self.PINNED_LAM[seed]


class TestVerifySuites:
    def test_all_pass_small(self):
        results = run_all(seed=42, cases=20, tol=1e-8)
        assert [r.name for r in results] == list(SUITE_NAMES)
        for r in results:
            assert r.failed == 0, f"{r.name}: max_err={r.max_err}"
            assert r.passed == 20
            assert r.max_err <= 1e-8

    def test_reproducible(self):
        a = run_all(seed=7, cases=10, tol=1e-8)
        b = run_all(seed=7, cases=10, tol=1e-8)
        assert a == b

    def test_single_suite(self):
        r = run_suite("duplication", seed=1, cases=30, tol=1e-11)
        assert r.failed == 0

    @pytest.mark.parametrize("cases", [100, 1000])
    def test_sumform_passes_at_seed_42(self, cases):
        # the closed form's cancellation check must leave n_index <= 10 alone
        r = run_suite("sumform", seed=42, cases=cases, tol=1e-8)
        assert r.failed == 0

    def test_failure_counted(self):
        # an absurd tolerance flags every case without raising
        r = run_suite("pfaff", seed=1, cases=5, tol=1e-30)
        assert r.failed > 0
        assert r.passed + r.failed == 5

    def test_unknown_suite_typed(self):
        with pytest.raises(InvalidParams, match="unknown suite 'bogus'"):
            run_all(1, 2, 1e-8, suites=("bogus",))

    @pytest.mark.parametrize("cases", [0, -3])
    def test_fewer_than_one_case_typed(self, cases):
        with pytest.raises(InvalidParams, match="^cases must be at least 1$"):
            run_suite("pfaff", 1, cases, 1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tol_not_positive_typed(self, tol):
        with pytest.raises(InvalidParams, match="^tol must be positive$"):
            run_suite("pfaff", 1, 3, tol)

    @pytest.mark.parametrize("field, value", [
        ("cases", 2.5), ("cases", "3"), ("cases", True),
        ("tol", "1e-8"), ("tol", False),
    ])
    def test_argument_of_the_wrong_type_typed(self, field, value):
        # were TypeError from range, < or >, or (cases=True) a one-case run
        kwargs = {"seed": 1, "cases": 3, "tol": 1e-8, field: value}
        word = "a real number" if field == "tol" else "an integer"
        message = f"^{field} must be {word}, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidParams, match=message):
            run_suite("pfaff", **kwargs)
        with pytest.raises(InvalidParams, match=message):
            run_all(**kwargs, suites=("pfaff",))

    def test_suites_given_as_one_str_typed(self):
        # was iterated letter by letter: "unknown suite 'p'"
        message = r"^suites must be a sequence of suite names, not the str 'pfaff'$"
        with pytest.raises(InvalidParams, match=message):
            run_all(1, 2, 1e-8, suites="pfaff")

    def test_every_suite_name_checked_before_any_suite_runs(self, monkeypatch):
        # connection ran to the end before bogus raised
        ran = []
        monkeypatch.setitem(verify._CASE_RUNNERS, "connection", lambda rng: ran.append(rng) or 0.0)
        message = f"^unknown suite 'bogus'; choose from {', '.join(SUITE_NAMES)}$"
        with pytest.raises(InvalidParams, match=message):
            run_all(1, 2, 1e-8, suites=("connection", "bogus"))
        assert ran == []

    def test_cases_checked_before_tol_and_suite(self):
        with pytest.raises(InvalidParams, match="^cases must be at least 1$"):
            run_suite("bogus", 1, 0, float("nan"))
        with pytest.raises(InvalidParams, match="^tol must be positive$"):
            run_suite("bogus", 1, 1, float("nan"))
