import logging
import math

import numpy as np
import pytest

from soapbubble.constants import (
    check_smallness,
    compute_constants,
    default_delta,
    length_budget,
    unit_ball_volume,
)

from .oracles import constants_highprec


class TestLedgerValues:
    def test_reference_case_exact_fields(self):
        # n=2, rho=1, |S|=4pi
        rep = compute_constants(2, 1.0, 4 * math.pi)
        assert rep.delta == 0.015625  # 1/64 beats 1/(8 sqrt 2)
        assert rep.big_l == pytest.approx(65536.0, rel=1e-12)
        assert rep.omega_n == pytest.approx(math.pi, rel=1e-15)

    def test_reference_case_vs_highprec(self):
        rep = compute_constants(2, 1.0, 4 * math.pi)
        hp = constants_highprec(2, 1.0, 4 * math.pi)
        assert rep.delta == pytest.approx(hp["delta"], rel=1e-12)
        assert rep.big_l == pytest.approx(hp["L"], rel=1e-12)
        assert rep.eps0 == pytest.approx(hp["eps0"], rel=1e-12)
        assert rep.r0 == pytest.approx(hp["r0"], rel=1e-12)
        assert rep.n0 == hp["N0"]
        assert rep.log10_c1 == pytest.approx(hp["log10_C1"], rel=1e-9)
        assert rep.diam_bound == pytest.approx(hp["diam_bound"], rel=1e-12)
        # order-of-magnitude sanity of the frozen display values
        assert rep.eps0 == pytest.approx(7.45050e-9, rel=1e-4)
        assert rep.n0 == 93033586

    def test_saturation_flags(self):
        rep = compute_constants(2, 1.0, 4 * math.pi)
        assert rep.saturated
        assert math.isinf(rep.c1) and math.isinf(rep.c)
        assert math.isfinite(rep.log10_c1) and math.isfinite(rep.log10_c)
        assert rep.eps2 == 0.0 and rep.eps3 == 0.0
        assert math.isfinite(rep.log10_eps2) and math.isfinite(rep.log10_eps3)

    def test_identities_hold_as_written(self):
        # independent arithmetic path for a non-saturating instance
        # (a coarse chain mesh keeps the amplification factor finite)
        n, rho, area = 2, 1.0, 0.4
        delta = 0.45 * rho
        rep = compute_constants(n, rho, area, k1=1.3, k2=0.7, k3=2.0, delta=delta)
        omega_n = math.pi
        big_l = area * 4 / (omega_n * delta**2)
        eps0 = min(0.5, rho / (16 * big_l) * math.sin(delta / (2 * rho)))
        n0 = 1 + math.floor(math.log(0.5) / math.log1p(-eps0))
        r0 = rho * math.sin(delta / (2 * rho))
        c1 = ((1 + r0 * math.sqrt(5)) * 1.3 + 1) ** (n0 + 1)
        assert rep.delta == delta
        assert rep.big_l == pytest.approx(big_l, rel=1e-14)
        assert rep.eps0 == pytest.approx(eps0, rel=1e-14)
        assert rep.n0 == n0
        assert rep.eps1 == pytest.approx(1 / (1 + 1.25 * 1.3**2), rel=1e-14)
        assert rep.log10_c1 == pytest.approx(math.log10(c1), rel=1e-12)
        assert rep.eps2 == pytest.approx(1 / (64 * c1), rel=1e-10)
        assert rep.eps3 == pytest.approx(delta / (rho * c1), rel=1e-10)
        assert rep.eps == min(rep.eps0, rep.eps1, rep.eps2, rep.eps3)
        assert rep.c == pytest.approx(1.25 * c1 * 1.3 * 0.7 * 2.0, rel=1e-10)
        assert rep.diam_bound == pytest.approx(area * 16 / (omega_n * rho**2), rel=1e-14)
        assert rep.eps_corollary == min(rep.eps, rho / (2 * rep.c))
        assert not rep.k_placeholder

    def test_all_positive(self):
        # non-saturating instance: every ledger entry strictly positive
        rep = compute_constants(1, 0.5, 0.3, delta=0.225)
        d = rep.to_dict()
        for key in ("delta", "L", "r0", "eps0", "eps1", "eps2", "eps3", "eps",
                    "C1", "C", "diam_bound", "eps_corollary"):
            assert d[key] > 0
        # saturating instance: linear forms may underflow but logs stay finite
        sat = compute_constants(1, 0.5, 2.0)
        assert math.isfinite(sat.log10_eps2) and math.isfinite(sat.log10_eps3)

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)

    def test_length_budget_is_the_ledger_l(self):
        # the chain reads L alone; it must be the ledger's float, bit for bit
        for n, rho, area, delta in ((1, 0.7, 6.1, None), (2, 1.0, 4 * math.pi, 0.5),
                                    (2, 2.3, 17.9, 0.011), (3, 1.0, 10.0, 0.2)):
            rep = compute_constants(n, rho, area, delta=delta)
            assert length_budget(n, area, rep.delta) == rep.big_l

    def test_input_validation(self):
        with pytest.raises(ValueError):
            compute_constants(2, -1.0, 4 * math.pi)
        with pytest.raises(ValueError):
            compute_constants(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            compute_constants(0, 1.0, 1.0)
        # NaN fails every comparison, so it must be refused by name, as must inf
        for bad in (math.nan, math.inf):
            for k in ("rho", "area", "k1", "k2", "k3", "delta"):
                given = {"rho": 1.0, "area": 1.0, k: bad}
                with pytest.raises(ValueError, match=k):
                    compute_constants(2, **given)
        with pytest.raises(ValueError, match="delta"):
            compute_constants(2, 1.0, 1.0, delta=0.0)
        with pytest.raises(ValueError, match="osc"):
            check_smallness(math.nan, compute_constants(2, 1.0, 1.0))
        # finite inputs whose ledger under- or overflows double precision
        for given in ({"rho": 1e-300, "area": 1.0}, {"rho": 1e300, "area": 1.0},
                      {"rho": 1.0, "area": 1e308}, {"rho": 1.0, "area": 1.0, "k1": 1e200}):
            with pytest.raises(ValueError, match="out of double-precision range: n=2, rho="):
                compute_constants(2, **given)

    def test_other_dimensions_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="soapbubble.constants"):
            compute_constants(3, 1.0, 10.0)
        [record] = caplog.records
        assert record.stage == "compute_constants"
        assert "n=3" in record.getMessage()

    def test_placeholder_marker(self):
        assert compute_constants(2, 1.0, 1.0).k_placeholder
        assert not compute_constants(2, 1.0, 1.0, k1=2.0).k_placeholder
        notes = compute_constants(2, 1.0, 1.0).to_dict()["notes"]
        assert any("PLACEHOLDER" in n for n in notes)

    @pytest.mark.parametrize("k", ["k1", "k2", "k3"])
    def test_any_supplied_constant_clears_the_placeholder(self, k):
        # the ledger works out from its inputs whether K1..K3 were supplied
        rep = compute_constants(2, 1.0, 1.0, **{k: 2.0})
        assert not rep.k_placeholder
        assert getattr(rep, k) == 2.0
        assert not any("PLACEHOLDER" in n for n in rep.to_dict()["notes"])
        assert "[PLACEHOLDER]" not in rep.table()
        # the ones left out stand at 1.0
        assert sorted([rep.k1, rep.k2, rep.k3]) == [1.0, 1.0, 2.0]

    def test_explicit_ones_are_not_placeholders(self):
        # a measured K of exactly 1 is a supplied value, not the placeholder
        assert not compute_constants(2, 1.0, 1.0, k1=1.0, k2=1.0, k3=1.0).k_placeholder


class TestScalingAndMonotonicity:
    def test_dimensional_homogeneity(self):
        # rescaling (rho, area) by (s, s^n) rescales the length-like entries
        # delta and r0 by s and leaves the count-like entries L, eps0 invariant
        for s in (0.5, 2.0):
            for n in (1, 2):
                base = compute_constants(n, 1.0, 3.0)
                scaled = compute_constants(n, s, 3.0 * s**n)
                assert scaled.delta == pytest.approx(s * base.delta, rel=1e-12)
                assert scaled.r0 == pytest.approx(s * base.r0, rel=1e-12)
                assert scaled.big_l == pytest.approx(base.big_l, rel=1e-12)
                # min-branch structure of eps0 is scale consistent: the
                # rho-linear branch stays active on both sides
                assert base.eps0 < 0.5 and scaled.eps0 < 0.5
                assert scaled.eps0 == pytest.approx(s * base.eps0, rel=1e-12)

    def test_eps0_monotone(self):
        areas = np.linspace(0.5, 6.0, 8)
        vals = [compute_constants(2, 1.0, a).eps0 for a in areas]
        assert np.all(np.diff(vals) <= 1e-18)
        rhos = np.linspace(0.3, 2.0, 8)
        vals = [compute_constants(2, r, 2.0).eps0 for r in rhos]
        assert np.all(np.diff(vals) >= -1e-18)

    def test_default_delta_branches(self):
        assert default_delta(1, 1.0) == 1.0 / 64.0
        assert default_delta(2, 1.0) == 1.0 / 64.0
        # large n flips the branch
        assert default_delta(100, 1.0) == 1.0 / (8 * 10.0)


class TestSmallness:
    def test_zero_osc_always_applicable(self):
        rep = compute_constants(2, 1.0, 4 * math.pi)
        v = check_smallness(0.0, rep)
        assert v.applicable

    def test_order_one_osc_not_applicable(self):
        rep = compute_constants(2, 1.0, 4 * math.pi)
        v = check_smallness(1.0, rep)
        assert not v.applicable
        assert v.margin < 0

    def test_boundary_case(self):
        rep = compute_constants(2, 1.0, 0.5)  # non-saturating
        v = check_smallness(rep.eps, rep)
        assert v.applicable
        assert v.margin == 0.0
