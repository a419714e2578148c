import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from touchlab import errors
from touchlab.optics import (
    REGION_MTF_LIMIT_UM,
    SWEEP_CONTACTS,
    Contact,
    ScatterSurface,
    TaxelImage,
    annulus_roi,
    count_glints,
    disc_roi,
    fov_mask,
    prong_mtf,
    region_psf_sigma_um,
    render,
    sample_bsdf,
    scatter_sweep,
    sweep_surface,
    uniformity_metrics,
)


class TestSampleBsdf:
    def test_specular_mirror_law(self):
        rng = np.random.default_rng(0)
        # 30 degree incidence onto a +z surface reflects at 30 degrees.
        d = np.array([math.sin(math.radians(30)), 0.0, -math.cos(math.radians(30))])
        out = sample_bsdf(ScatterSurface.specular(), d, rng)
        want = np.array([math.sin(math.radians(30)), 0.0, math.cos(math.radians(30))])
        assert np.allclose(out, want, atol=1e-12)

    def test_gaussian_hwhm(self):
        # Monte-Carlo histogram oracle: the deviation-angle density must fall
        # to half its peak at alpha.
        rng = np.random.default_rng(1)
        alpha = 5.0
        d = np.broadcast_to(np.array([0.0, 0.0, -1.0]), (1_000_000, 3))
        out = sample_bsdf(ScatterSurface.gaussian(alpha), d, rng)
        mirror = np.array([0.0, 0.0, 1.0])
        dev = np.degrees(np.arccos(np.clip(out @ mirror, -1.0, 1.0)))
        hist, edges = np.histogram(dev, bins=np.arange(0.0, 15.0, 0.25))
        peak = hist[0]
        below = np.nonzero(hist < peak / 2.0)[0]
        k = below[0]
        # Linear interpolation between the last bin above half and this one.
        frac = (hist[k - 1] - peak / 2.0) / (hist[k - 1] - hist[k])
        hwhm = edges[k - 1] + 0.125 + frac * 0.25
        assert hwhm == pytest.approx(alpha, abs=0.3)

    def test_lambertian_mean_polar_angle(self):
        # Analytic-integral oracle: cosine-weighted mean polar angle is 45 deg.
        rng = np.random.default_rng(2)
        d = np.broadcast_to(np.array([0.0, 0.0, -1.0]), (1_000_000, 3))
        out = sample_bsdf(ScatterSurface.lambertian(), d, rng)
        polar = np.degrees(np.arccos(np.clip(out[:, 2], -1.0, 1.0)))
        assert polar.mean() == pytest.approx(45.0, abs=0.5)

    def test_non_unit_incident_rejected(self):
        with pytest.raises(ValueError):
            sample_bsdf(ScatterSurface.specular(), np.array([0.0, 0.0, -2.0]),
                        np.random.default_rng(0))

    def test_gaussian_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            ScatterSurface.gaussian(0.5)
        with pytest.raises(ValueError):
            ScatterSurface.gaussian(30.0)

    @pytest.mark.parametrize("alpha", [0.5, 30.0, float("nan"), "matte"])
    def test_bad_sweep_point_is_config_error(self, alpha):
        with pytest.raises(errors.ConfigError):
            sweep_surface(alpha)


class TestRender:
    def test_budget_too_small(self):
        with pytest.raises(errors.BudgetTooSmall):
            render(ScatterSurface.lambertian(), photons=10_000)

    def test_specular_has_exactly_8_glints(self):
        img = render(ScatterSurface.specular(), photons=300_000, seed=0)
        assert count_glints(img) == 8

    def test_lambertian_most_uniform(self):
        mask = fov_mask()
        m_lam = uniformity_metrics(
            render(ScatterSurface.lambertian(), photons=200_000, seed=0), mask)
        m_spec = uniformity_metrics(
            render(ScatterSurface.specular(), photons=200_000, seed=0), mask)
        m_g5 = uniformity_metrics(
            render(ScatterSurface.gaussian(5.0), photons=200_000, seed=0), mask)
        assert m_lam["std_over_mean"] < m_g5["std_over_mean"] < m_spec["std_over_mean"]

    def test_contact_outside_surface(self):
        with pytest.raises(errors.ContactOutsideSurface):
            Contact(polar_deg=95.0, azimuth_deg=0.0)

    def test_contact_produces_local_deviation(self):
        surface = ScatterSurface.gaussian(20.0)
        c = Contact(polar_deg=30.0, azimuth_deg=0.0)
        bg = render(surface, photons=400_000, seed=1).scalar()
        cn = render(surface, contacts=[c], photons=400_000, seed=1).scalar()
        roi = disc_roi(c.polar_deg, c.azimuth_deg, c.angular_radius_rad / (np.pi / 2.0))
        delta = np.abs(cn - bg)
        assert delta[roi].mean() > 3.0 * delta[~roi & fov_mask()].mean()


class TestPinnedDigests:
    """SHA-256 of render and sampler outputs for fixed seeds.

    Any change to the tracer that reorders floating-point work or RNG draws
    shows up here; a change meant to keep the data must leave these alone.
    """

    SURFACES = {
        "specular": ScatterSurface.specular(),
        "gaussian1": ScatterSurface.gaussian(1.0),
        "gaussian20": ScatterSurface.gaussian(20.0),
        "lambertian": ScatterSurface.lambertian(),
    }

    @staticmethod
    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    @pytest.mark.parametrize("surface,contacts,want", [
        ("specular", False,
         "db5720b647a9823422a157d3d69676bd75a4d3e71714594458fd20022c041646"),
        ("specular", True,
         "a017849460485a148c12effd17fb67de04bcf788f71a14a8eece019e667d7267"),
        ("gaussian1", False,
         "267197e9457b6f2b78a877e2aab474efbfe0309395f27498b93467b71cee3117"),
        ("gaussian1", True,
         "0f309a4189bd02a0cb127917a6a7367435aee08f8f0ccea6cc530f103b464c48"),
        ("gaussian20", False,
         "a062ce1b8eb6a3f4d36463de631bc2f0b83233711be7b118cd5ded35932f70a5"),
        ("gaussian20", True,
         "5fcc6ad5d870bb4dcd059c8ac4e475663f1ae7e35b2e35cade5bc35810445fdf"),
        ("lambertian", False,
         "5a369a11ce0fafdbc0570031cc9eb0f0d5888aa4bdfc063cb3a05a76bb7a5555"),
        ("lambertian", True,
         "85bbff0dc28d67f549770de7bba8c28354a668d9a80994eacff57fdfdc4cbc23"),
    ])
    def test_render(self, surface, contacts, want):
        img = render(self.SURFACES[surface],
                     contacts=SWEEP_CONTACTS if contacts else (),
                     photons=100_000, seed=5)
        assert self.digest(img.values) == want

    @pytest.mark.parametrize("surface,want", [
        ("specular",
         "1c3b9011a2e02aec834e02b53f50a70db8f89450a041e070e2e2ffbe5359d379"),
        ("gaussian20",
         "f6db6ef86376cff44e6dea05d843f664981b2e293e38fc8ea42a8aa1e187302b"),
        ("lambertian",
         "3bbadfa0c9270c676e466d297865a10eaaf25d8180b8c1f151657e81410bd826"),
    ])
    def test_sample_bsdf(self, surface, want):
        # Random incident directions: about half point away from the normal,
        # so the fold back onto the reflective side is exercised too.
        d = np.random.default_rng(4).normal(size=(1000, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        out = sample_bsdf(self.SURFACES[surface], d, np.random.default_rng(9),
                          normal=(0.2, -0.1, 1.0))
        assert self.digest(out) == want


class TestUniformityMetrics:
    def test_constant_image(self):
        img = TaxelImage(values=np.full((50, 50), 2.0))
        m = uniformity_metrics(img, np.ones((50, 50), dtype=bool))
        assert m["std_over_mean"] == 0.0
        assert m["range_over_mean"] == 0.0

    def test_half_half(self):
        values = np.concatenate([np.full(200, 1.0), np.full(200, 3.0)]).reshape(20, 20)
        m = uniformity_metrics(TaxelImage(values=values), np.ones((20, 20), dtype=bool))
        assert m["std_over_mean"] == pytest.approx(0.5)
        assert m["range_over_mean"] == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.random((30, 30)) + 0.5
        mask = np.ones((30, 30), dtype=bool)
        m1 = uniformity_metrics(TaxelImage(values=values), mask)
        m2 = uniformity_metrics(TaxelImage(values=7.5 * values), mask)
        assert m1["std_over_mean"] == pytest.approx(m2["std_over_mean"])
        assert m1["range_over_mean"] == pytest.approx(m2["range_over_mean"])

    def test_empty_mask(self):
        img = TaxelImage(values=np.ones((20, 20)))
        with pytest.raises(errors.EmptyMask):
            uniformity_metrics(img, np.zeros((20, 20), dtype=bool))

    def test_zero_mean(self):
        img = TaxelImage(values=np.zeros((20, 20)))
        with pytest.raises(errors.ZeroMean):
            uniformity_metrics(img, np.ones((20, 20), dtype=bool))


class TestScatterSweep:
    def test_single_point_returned(self):
        res = scatter_sweep(alphas=[15.0], photons=150_000)
        assert res["recommended"] == "15deg"
        assert res["recommended_band"] == ["15deg"]

    def test_cnr_only_weights_pick_minimum_alpha(self):
        # With no background penalty the objective grows with cnr_score, so
        # a CNR-only objective would recommend the narrowest lobe.
        res = scatter_sweep(alphas=(1.0, 10.0, 25.0), photons=150_000)
        best = max(res["rows"], key=lambda r: r["cnr_score"])
        assert best["alpha"] == "1deg"

    def test_bad_point_fails_before_rendering(self, monkeypatch):
        import touchlab.optics as optics_mod

        def no_render(*args, **kwargs):
            raise AssertionError("rendered before validating every point")

        monkeypatch.setattr(optics_mod, "render", no_render)
        with pytest.raises(errors.ConfigError):
            scatter_sweep(alphas=(1.0, 30.0), photons=150_000)

    def test_row_fields(self):
        res = scatter_sweep(alphas=(5.0, "lambertian"), photons=150_000)
        for row in res["rows"]:
            for key in ("alpha", "std_over_mean", "range_over_mean",
                        "cnr_on_axis", "cnr_mid", "cnr_far", "objective"):
                assert key in row


class TestMtf:
    def test_large_spacing_asymptote(self):
        res = prong_mtf(spacing_um=100.0, psf_sigma_um=2.0)
        assert res["mtf"] > 0.99
        assert res["resolvable"]

    def test_zero_spacing_merged(self):
        # Spacing 0 is no prong pair and is rejected (next test); a pair
        # 1 nm apart under a 2 um PSF merges into one peak.
        res = prong_mtf(spacing_um=1e-3, psf_sigma_um=2.0)
        assert res["mtf"] == 0.0
        assert not res["resolvable"]

    @pytest.mark.parametrize("spacing,sigma", [
        (0.0, 2.0), (-3.0, 2.0), (float("nan"), 2.0), (float("inf"), 2.0),
        (6.0, 0.0), (6.0, float("nan")),
    ])
    def test_non_positive_or_nan_rejected(self, spacing, sigma):
        with pytest.raises(errors.ConfigError):
            prong_mtf(spacing, sigma)

    @pytest.mark.parametrize("k", [1e-3, 0.37, 3.0, 40.0])
    def test_scale_free(self, k):
        # The MTF of two equal Gaussians depends on spacing / sigma alone.
        for spacing, sigma in ((2.5, 1.0), (6.0, 1.6), (9.0, 2.1), (22.0, 5.8)):
            assert prong_mtf(k * spacing, k * sigma)["mtf"] == pytest.approx(
                prong_mtf(spacing, sigma)["mtf"], abs=1e-12)

    def test_merge_point(self):
        # Two unit Gaussians merge into one peak at spacing 2 sigma exactly.
        assert prong_mtf(2.01, 1.0)["mtf"] > 0.0
        assert prong_mtf(2.0, 1.0)["mtf"] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.5, max_value=40.0),
           st.floats(min_value=0.5, max_value=8.0))
    def test_monotone_in_spacing(self, spacing, sigma):
        lo = prong_mtf(spacing, sigma)["mtf"]
        hi = prong_mtf(spacing * 1.3, sigma)["mtf"]
        assert hi >= lo - 1e-9

    def test_region1_calibration(self):
        sigma = region_psf_sigma_um(1)
        assert prong_mtf(6.0, sigma)["mtf"] == pytest.approx(0.5, abs=1e-3)
        assert prong_mtf(7.0, sigma)["resolvable"]
        assert not prong_mtf(5.0, sigma)["resolvable"]

    def test_region_limits_ordered(self):
        assert region_psf_sigma_um(1) < region_psf_sigma_um(2) < region_psf_sigma_um(3)

    @pytest.mark.parametrize("region", sorted(REGION_MTF_LIMIT_UM))
    def test_region_limit_resolvable(self, region):
        res = prong_mtf(REGION_MTF_LIMIT_UM[region], region_psf_sigma_um(region))
        assert res["resolvable"]
        assert res["mtf"] == pytest.approx(0.5, abs=1e-12)
