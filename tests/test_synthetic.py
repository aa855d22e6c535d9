import math

import numpy as np
import pytest

from feecalib import (Scenario, SlopedLine, add_noise, default_loader,
                      find_preset, make_trajectory,
                      predict_force_arrays, preset_catalog, simulate_cycle,
                      wedge_geometry)
from feecalib.synthetic import steel_contact_delta


class TestSimulateCycle:
    def test_default_sampling_gives_281_points(self, scenario):
        assert scenario.n_samples == 281

    def test_dataset_shape(self, dataset):
        assert dataset.n == 281
        assert dataset.f_t_obs.shape == (281,)
        assert np.all(np.isfinite(dataset.f_t_obs))
        assert np.all(np.isfinite(dataset.f_n_obs))

    def test_zero_depth_path_gives_zero_forces(self, truth):
        surface = SlopedLine((0.0, 0.0), 0.0)
        i = np.arange(20)
        samples = make_trajectory(i * 0.1, i.astype(float), np.full(20, 0.5),
                                  np.full(20, 0.5))
        scenario = Scenario(surface=surface, loader=default_loader(),
                            samples=samples)
        ds = simulate_cycle(scenario, truth)
        assert np.all(ds.f_t_obs == 0.0)
        assert np.all(ds.f_n_obs == 0.0)

    def test_round_trip_is_bitwise(self, dataset, truth, scenario):
        depth, lt, area = wedge_geometry(dataset.samples, dataset.surface)
        pred = predict_force_arrays(depth, dataset.samples.rho, lt, area,
                                    truth, dataset.loader,
                                    scenario.surface.nominal_alpha)
        f_t, f_n = pred.arrays()
        assert np.array_equal(f_t, dataset.f_t_obs)
        assert np.array_equal(f_n, dataset.f_n_obs)


class TestAddNoise:
    def test_zero_sigma_is_identity(self, dataset):
        out = add_noise(dataset, 0.0, seed=3)
        assert np.array_equal(out.f_t_obs, dataset.f_t_obs)
        assert np.array_equal(out.f_n_obs, dataset.f_n_obs)

    def test_deterministic_for_fixed_seed(self, dataset):
        a = add_noise(dataset, 0.05, seed=11)
        b = add_noise(dataset, 0.05, seed=11)
        assert np.array_equal(a.f_t_obs, b.f_t_obs)
        assert np.array_equal(a.f_n_obs, b.f_n_obs)
        c = add_noise(dataset, 0.05, seed=12)
        assert not np.array_equal(a.f_t_obs, c.f_t_obs)

    def test_empirical_sigma_matches_target(self, truth):
        surface = SlopedLine((0.0, 0.0), 0.0)
        i = np.arange(10_000)
        samples = make_trajectory(i * 0.01, i * 1e-4, np.full(10_000, 0.5),
                                  np.full(10_000, 0.5))
        scenario = Scenario(surface=surface, loader=default_loader(),
                            samples=samples)
        ds = simulate_cycle(scenario, truth)
        # flat zero signal: inject a single reference peak
        ft = ds.f_t_obs.copy()
        ft[0] = 1000.0
        ds = type(ds)(samples=ds.samples, f_t_obs=ft, f_n_obs=ds.f_n_obs,
                      surface=ds.surface, loader=ds.loader)
        noisy = add_noise(ds, 0.05, seed=21)
        sigma = np.std(noisy.f_t_obs[1:] - ds.f_t_obs[1:])
        assert sigma == pytest.approx(0.05 * 1000.0, rel=0.05)

    def test_rejects_negative_sigma(self, dataset):
        with pytest.raises(ValueError):
            add_noise(dataset, -0.1, seed=0)


class TestPresets:
    def test_dry_loose_sand_values(self):
        p = find_preset("Dry Loose Sand")
        assert p.kc == 0.0
        assert p.kphi == 1.58e6  # 1.58e3 kN/m^(n+2)
        assert p.n == 1.01

    def test_sandy_loam_heavy_clay_lete(self):
        p = find_preset("Sandy Loam")
        assert (p.kc, p.kphi, p.n) == (11.9e3, 674.0e3, 0.81)
        p = find_preset("Heavy Clay WES 40")
        assert (p.kc, p.kphi, p.n) == (1.84e3, 103.0e3, 0.11)
        p = find_preset("LETE Sand")
        assert (p.kc, p.kphi, p.n) == (102.0e3, 5.30e6, 0.79)

    def test_well_graded_sand_class(self):
        p = find_preset("Well-graded sand")
        assert p.gamma == (1410.0, 2279.0)
        assert p.cohesion_c == 0.0
        assert p.phi == pytest.approx(math.radians(38.0))

    def test_low_plasticity_clay_class(self):
        p = find_preset("Clay of low plasticity")
        assert p.cohesion_c == 20_000.0
        assert p.phi == pytest.approx(math.radians(27.0))
        assert p.gamma == (1330.0, 1390.0)

    def test_instantiation_uses_midpoint_and_steel_delta(self):
        p = find_preset("Well-graded sand").merged(
            find_preset("Dry Loose Sand"))
        soil = p.soil_parameters()
        assert soil.gamma == pytest.approx(0.5 * (1410.0 + 2279.0))
        assert soil.delta == pytest.approx(math.radians(20.0))
        assert soil.adhesion_ca == soil.cohesion_c == 0.0

    def test_steel_delta_capped_by_phi(self):
        assert steel_contact_delta(math.radians(38.0)) == pytest.approx(
            math.radians(20.0))
        assert steel_contact_delta(math.radians(24.0)) == pytest.approx(
            math.radians(16.0))

    def test_incomplete_preset_raises(self):
        with pytest.raises(ValueError, match="lacks"):
            find_preset("Well-graded sand").soil_parameters()

    def test_lookup_errors(self):
        with pytest.raises(KeyError):
            find_preset("unobtainium")
        with pytest.raises(KeyError, match="ambiguous"):
            find_preset("sand")

    def test_all_presets_have_provenance(self):
        for p in preset_catalog():
            assert p.name and p.provenance

    def test_override_wins(self):
        p = find_preset("Well-graded sand").merged(
            find_preset("Dry Loose Sand"))
        soil = p.soil_parameters(gamma=1500.0)
        assert soil.gamma == 1500.0


class TestScenarioValidation:
    def test_requires_exactly_one_path_kind(self):
        surface = SlopedLine((0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            Scenario(surface=surface, loader=default_loader())
        with pytest.raises(ValueError):
            Scenario(surface=surface, loader=default_loader(),
                     control_points=((0, 0), (1, 1)))

    def test_rejects_nonpositive_rate(self):
        surface = SlopedLine((0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            Scenario(surface=surface, loader=default_loader(),
                     control_points=((0, 0), (1, 1), (2, 0)),
                     sample_rate=0.0)
