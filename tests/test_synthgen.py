"""Synthetic generator tests: planted structure must be exactly recoverable."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from fofr.core import FunctionalDataset, Interval, ObservationSeries, make_grid
from fofr.errors import BadScenario, DuplicateTimestamp, IndexOutOfRange, MalformedRow
from fofr.synthgen import (
    TRUTH_GRID_SIZE,
    GroundTruth,
    PlantedBasis,
    SynthScenario,
    _build_mapping,
    _mean_function,
    _random_orthogonal,
    apply_mapping,
    dataset_schema,
    drop_observations,
    generate,
    ground_truth_to_dict,
    load_scenario,
    oracle_scores,
    preset_scenario,
    scenario_from_dict,
)


class TestPlantedBasis:
    @pytest.mark.parametrize("channels,order,rank", [(1, 3, 5), (2, 2, 7), (3, 1, 9)])
    def test_orthonormal_under_quadrature(self, channels, order, rank):
        grid = make_grid(Interval(0, 1), 401)
        basis = PlantedBasis(Interval(0, 1), channels, order, rank, None)
        tab = basis.eval(grid.points)
        gram = np.einsum("pcg,qcg,g->pq", tab, tab, grid.quad_weights)
        np.testing.assert_allclose(gram, np.eye(rank), atol=1e-4)

    def test_mixing_preserves_orthonormality(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        grid = make_grid(Interval(0, 2), 401)
        basis = PlantedBasis(Interval(0, 2), 2, 2, 4, q)
        tab = basis.eval(grid.points)
        gram = np.einsum("pcg,qcg,g->pq", tab, tab, grid.quad_weights)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-4)

    def test_nonunit_domain(self):
        grid = make_grid(Interval(-1, 3), 801)
        basis = PlantedBasis(Interval(-1, 3), 1, 2, 3, None)
        tab = basis.eval(grid.points)
        gram = np.einsum("pcg,qcg,g->pq", tab, tab, grid.quad_weights)
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-4)


class TestScenarioValidation:
    def test_eigenvalues_must_decrease(self):
        with pytest.raises(BadScenario):
            SynthScenario(eigenvalues_x=(0.5, 1.0))

    def test_rank_exceeds_capacity(self):
        with pytest.raises(BadScenario):
            SynthScenario(fourier_order_x=1, eigenvalues_x=tuple([1.0] * 4),
                          covariate_channels=1)

    def test_linear_cannot_raise_rank(self):
        with pytest.raises(BadScenario):
            SynthScenario(eigenvalues_x=(1.0,), eigenvalues_y=(1.0, 0.5),
                          mapping="linear")

    def test_quadratic_rank_limit(self):
        with pytest.raises(BadScenario):
            SynthScenario(eigenvalues_x=(1.0,), eigenvalues_y=(1.0, 0.5, 0.25),
                          mapping="quadratic")

    def test_bad_sampling(self):
        with pytest.raises(BadScenario):
            SynthScenario(sampling=("dense", 1))
        with pytest.raises(BadScenario):
            SynthScenario(sampling=("weird", 5))
        with pytest.raises(BadScenario):
            SynthScenario(sampling=())

    @pytest.mark.parametrize("change", [
        dict(sampling=("dense", 41.9)), dict(sampling=("dense", "41")),
        dict(sampling=("dense", True)), dict(sampling=("irregular", "8", 3)),
        dict(sampling=("irregular", True, 3)), dict(sampling=("irregular", 8, 3.0)),
        dict(eigenvalues_x=(1.0, "0.5")), dict(eigenvalues_y=(True,)), dict(seed=True),
    ])
    def test_numbers_are_not_coerced(self, change):
        with pytest.raises(BadScenario):
            SynthScenario(**change)

    def test_integer_eigenvalues_are_stored_as_floats(self):
        sc = SynthScenario(eigenvalues_x=(2, 1), eigenvalues_y=(1,))
        assert [type(v) for v in sc.eigenvalues_x + sc.eigenvalues_y] == [float] * 3


class TestMapping:
    def test_linear_response_spectrum_is_exact(self):
        # the planted map is built so Cov(theta) = diag(eigenvalues_y) exactly
        rng = np.random.default_rng(1)
        sc = preset_scenario("linear")
        _, truth = generate(sc)
        B = truth.mapping_matrices["B"]
        lam_x = np.diag(np.array(sc.eigenvalues_x))
        np.testing.assert_allclose(B @ lam_x @ B.T, np.diag(sc.eigenvalues_y),
                                   atol=1e-12)

    def test_quadratic_response_spectrum_is_exact(self):
        sc = preset_scenario("quadratic")
        _, truth = generate(sc)
        B1, B2 = truth.mapping_matrices["B1"], truth.mapping_matrices["B2"]
        lam_x = np.array(sc.eigenvalues_x)
        cov = B1 @ np.diag(lam_x) @ B1.T + B2 @ np.diag(2 * lam_x ** 2) @ B2.T
        np.testing.assert_allclose(cov, np.diag(sc.eigenvalues_y), atol=1e-12)

    def test_apply_mapping_vector_and_batch(self):
        sc = preset_scenario("quadratic")
        _, truth = generate(sc)
        lam_x = sc.eigenvalues_x
        xi = truth.covariate_scores[:3]
        batch = apply_mapping(truth.mapping_matrices, lam_x, xi)
        singles = np.stack([apply_mapping(truth.mapping_matrices, lam_x, x)
                            for x in xi])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestGenerate:
    def test_deterministic(self):
        sc = replace(preset_scenario("linear"), n_subjects=10)
        d1, t1 = generate(sc)
        d2, t2 = generate(sc)
        np.testing.assert_array_equal(t1.covariate_scores, t2.covariate_scores)
        for i in range(d1.n_subjects):
            for a, b in zip(d1.covariates[i], d2.covariates[i]):
                np.testing.assert_array_equal(a.values, b.values)

    def test_noiseless_curves_match_planted_expansion(self):
        sc = replace(preset_scenario("linear"), n_subjects=8)
        data, truth = generate(sc)
        # observed response values must equal mean + theta . basis at the times
        basis = PlantedBasis(sc.response_domain, sc.response_channels,
                             sc.fourier_order_y, len(sc.eigenvalues_y), None)
        for i in range(3):
            for d in range(sc.response_channels):
                s = data.responses[i][d]
                grid_vals = np.interp(s.times, truth.grid_t.points,
                                      truth.noiseless_responses[i, d])
                np.testing.assert_allclose(s.values, grid_vals, atol=5e-4)

    def test_empirical_covariate_spectrum(self):
        sc = replace(preset_scenario("linear"), n_subjects=4000)
        _, truth = generate(sc)
        emp = np.cov(truth.covariate_scores, rowvar=False)
        np.testing.assert_allclose(np.diag(emp), sc.eigenvalues_x, rtol=0.15)

    def test_irregular_sampling(self):
        sc = replace(preset_scenario("linear"), n_subjects=10,
                     sampling=("irregular", 20.0, 5))
        data, _ = generate(sc)
        lengths = {len(s) for row in data.covariates for s in row}
        assert len(lengths) > 1  # genuinely variable designs
        assert min(lengths) >= 5

    def test_oracle_scores_bounds(self):
        sc = replace(preset_scenario("linear"), n_subjects=5)
        _, truth = generate(sc)
        xi, theta = oracle_scores(truth, 0)
        assert xi.shape == (4,) and theta.shape == (3,)
        with pytest.raises(IndexOutOfRange):
            oracle_scores(truth, 5)


def reference_draw_series(scenario, basis, channel, scores, rng):
    """The per-series draw that ``generate`` replaced: it builds the times and
    tabulates the mean and basis anew for every series, and checks each series."""
    lo, hi = basis.domain.lo, basis.domain.hi
    if scenario.sampling[0] == "dense":
        times = np.linspace(lo, hi, scenario.sampling[1])
    else:
        _, rate, min_points = scenario.sampling
        times = np.sort(rng.uniform(lo, hi, size=max(int(rng.poisson(rate)), min_points)))
    values = (_mean_function(basis.domain, channel, scenario.mean_scale, times)
              + np.einsum("p,pt->t", scores, basis.eval(times)[:, channel, :]))
    if scenario.noise_sd > 0:
        values = values + scenario.noise_sd * rng.standard_normal(len(times))
    return ObservationSeries(times, values)


def reference_generate(scenario):
    """``generate`` as it was with every series drawn by ``reference_draw_series``."""
    rng = np.random.default_rng(scenario.seed)
    bases = [PlantedBasis(domain, channels, order, len(lams),
                          _random_orthogonal(rng, len(lams)) if scenario.mix_channels else None)
             for _, domain, channels, order, lams in scenario._sides()]
    mapping = _build_mapping(scenario, rng)
    n = scenario.n_subjects
    xi = rng.standard_normal((n, bases[0].rank)) * np.sqrt(scenario.eigenvalues_x)[None, :]
    scores = (xi, np.atleast_2d(apply_mapping(mapping, scenario.eigenvalues_x, xi)))
    grids = [make_grid(basis.domain, TRUTH_GRID_SIZE) for basis in bases]
    tabs = [basis.eval(grid.points) for basis, grid in zip(bases, grids)]
    means = [np.stack([_mean_function(basis.domain, c, scenario.mean_scale, grid.points)
                       for c in range(basis.channels)]) for basis, grid in zip(bases, grids)]
    variances = [np.einsum("p,pcg->cg", np.array(lams), tab ** 2)
                 for (*_, lams), tab in zip(scenario._sides(), tabs)]
    noiseless = means[1][None, :, :] + np.einsum("np,pdg->ndg", scores[1], tabs[1])
    covariates, responses = zip(*(
        [[reference_draw_series(scenario, basis, c, side_scores[i], rng)
          for c in range(basis.channels)]
         for basis, side_scores in zip(bases, scores)]
        for i in range(n)))
    schema = dataset_schema(scenario)
    dataset = FunctionalDataset(scenario.covariate_domain, scenario.response_domain,
                                schema.covariates, schema.responses,
                                [f"s{i:04d}" for i in range(n)], covariates, responses)
    truth = GroundTruth(scenario, *grids, *tabs, *means, *variances, *scores, mapping, noiseless)
    return dataset, truth


def assert_same_series(data, expected):
    assert data.subject_ids == expected.subject_ids
    for rows, expected_rows in ((data.covariates, expected.covariates),
                                (data.responses, expected.responses)):
        for row, expected_row in zip(rows, expected_rows, strict=True):
            for a, b in zip(row, expected_row, strict=True):
                assert a.times.dtype == b.times.dtype and a.values.dtype == b.values.dtype
                assert a.times.tobytes() == b.times.tobytes()
                assert a.values.tobytes() == b.values.tobytes()


PRESETS = ("linear", "dense", "quadratic", "rank_11_10")


class TestGenerateOracle:
    """``generate`` tabulates a dense design once per side and checks each
    channel's draws at once; its output is bit-equal to the per-series draw."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sampling", [None, ("irregular", 20, 5)])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_bit_equal_to_per_series_draw(self, preset, sampling, seed):
        sc = replace(preset_scenario(preset), n_subjects=100, seed=seed)
        if sampling is not None:
            sc = replace(sc, sampling=sampling)
        data, truth = generate(sc)
        expected_data, expected_truth = reference_generate(sc)
        assert_same_series(data, expected_data)
        assert truth.scenario == expected_truth.scenario
        for f in fields(GroundTruth):
            value, expected = getattr(truth, f.name), getattr(expected_truth, f.name)
            if isinstance(value, np.ndarray):
                assert value.tobytes() == expected.tobytes(), f.name
        for name in ("grid_s", "grid_t"):
            for attr in ("points", "quad_weights"):
                assert (getattr(getattr(truth, name), attr).tobytes()
                        == getattr(getattr(expected_truth, name), attr).tobytes())
        assert truth.mapping_matrices.keys() == expected_truth.mapping_matrices.keys()
        for key, value in truth.mapping_matrices.items():
            assert value.tobytes() == expected_truth.mapping_matrices[key].tobytes()
        assert_same_series(drop_observations(data, 0.3, seed=seed),
                           drop_observations(expected_data, 0.3, seed=seed))

    def test_tied_irregular_times_raise(self):
        # three representable times in the covariate domain, at least five per series
        hi = float(np.nextafter(np.nextafter(1.0, 2.0), 2.0))
        sc = replace(preset_scenario("dense"), n_subjects=4, sampling=("irregular", 20, 5),
                     covariate_domain=Interval(1.0, hi))
        for draw in (reference_generate, generate):
            with pytest.raises(DuplicateTimestamp, match="^times must be strictly increasing$"):
                draw(sc)

    def test_non_finite_draw_raises(self):
        sc = replace(preset_scenario("dense"), n_subjects=4, mean_scale=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            for draw in (reference_generate, generate):
                with pytest.raises(MalformedRow, match="^times and values must be finite$"):
                    draw(sc)

    def test_dense_series_share_one_read_only_grid(self):
        data, _ = generate(replace(preset_scenario("dense"), n_subjects=3))
        first = data.covariates[0][0]
        assert all(s.times is first.times for row in data.covariates for s in row)
        assert data.responses[0][0].times is not first.times  # one grid per side
        with pytest.raises(ValueError):
            first.times[0] = 0.5
        with pytest.raises(ValueError):
            first.times += 0.0
        assert data.covariates[1][0].times[0] == 0.0


class TestDropObservations:
    def test_keeps_subset_and_minimum(self):
        sc = replace(preset_scenario("linear"), n_subjects=6)
        data, _ = generate(sc)
        thinned = drop_observations(data, 0.5, seed=3)
        for i in range(data.n_subjects):
            for a, b in zip(thinned.covariates[i], data.covariates[i]):
                assert len(a) >= 2
                assert set(a.times).issubset(set(b.times))

    def test_zero_fraction_is_identity(self):
        sc = replace(preset_scenario("linear"), n_subjects=6)
        data, _ = generate(sc)
        same = drop_observations(data, 0.0, seed=3)
        for i in range(data.n_subjects):
            for a, b in zip(same.covariates[i], data.covariates[i]):
                np.testing.assert_array_equal(a.times, b.times)

    def test_bad_fraction(self):
        sc = replace(preset_scenario("linear"), n_subjects=6)
        data, _ = generate(sc)
        with pytest.raises(BadScenario):
            drop_observations(data, 1.0, seed=0)


class TestScenarioSerialization:
    def test_preset_merge(self):
        sc = scenario_from_dict({"preset": "linear", "n_subjects": 33, "seed": 99})
        base = preset_scenario("linear")
        assert sc.n_subjects == 33 and sc.seed == 99
        assert sc.eigenvalues_x == base.eigenvalues_x

    def test_dict_sampling_forms(self):
        sc = scenario_from_dict({"preset": "linear",
                                 "sampling": {"kind": "irregular", "rate": 15,
                                              "min_points": 4}})
        assert sc.sampling == ("irregular", 15.0, 4)

    def test_domain_lists(self):
        sc = scenario_from_dict({"preset": "linear", "covariate_domain": [0, 2.5]})
        assert sc.covariate_domain == Interval(0.0, 2.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(BadScenario):
            scenario_from_dict({"preset": "linear", "wavelength": 3})

    @pytest.mark.parametrize("change", [
        {"mix_channels": "no"}, {"mean_scale": "2"}, {"covariate_domain": ["0", 2]},
        {"sampling": {"kind": "dense", "points": 12.9}},
        {"sampling": {"kind": "irregular", "rate": "8", "min_points": 3}},
        {"sampling": {"kind": "irregular", "rate": 8}},
        {"sampling": {"kind": "dense", "points": 12, "rate": 8}},
        {"sampling": {"kind": ["dense"], "points": 12}}, {"preset": ["linear"]}, {"preset": None},
    ])
    def test_rejects_values_it_used_to_coerce(self, change):
        with pytest.raises(BadScenario):
            scenario_from_dict({"preset": "linear", **change})

    def test_unknown_preset(self):
        with pytest.raises(BadScenario):
            preset_scenario("cubic")

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({"preset": "quadratic", "n_subjects": 12}))
        sc = load_scenario(path)
        assert sc.mapping == "quadratic" and sc.n_subjects == 12

    @pytest.mark.parametrize("scenario", [
        *(replace(preset_scenario(name), n_subjects=6)
          for name in ("rank_11_10", "linear", "dense", "quadratic")),
        replace(preset_scenario("dense"), n_subjects=6, sampling=("irregular", 20, 5),
                covariate_domain=Interval(-1.0, 2.5), mix_channels=False, mean_scale=2.0),
    ], ids=["rank_11_10", "linear", "dense", "quadratic", "irregular"])
    def test_ground_truth_record(self, scenario):
        _, truth = generate(scenario)
        record = json.loads(json.dumps(ground_truth_to_dict(truth)))
        assert scenario_from_dict(record["scenario"]) == scenario
        assert set(record) == {f.name for f in fields(GroundTruth)}
        l, p = len(scenario.eigenvalues_x), len(scenario.eigenvalues_y)
        r, d = scenario.covariate_channels, scenario.response_channels
        n, g = scenario.n_subjects, TRUTH_GRID_SIZE
        shapes = {"covariate_basis": (l, r, g), "response_basis": (p, d, g),
                  "covariate_mean": (r, g), "response_mean": (d, g),
                  "covariate_var": (r, g), "response_var": (d, g),
                  "covariate_scores": (n, l), "response_scores": (n, p),
                  "noiseless_responses": (n, d, g)}
        for name, shape in shapes.items():
            assert np.shape(record[name]) == shape
            np.testing.assert_array_equal(np.array(record[name]), getattr(truth, name),
                                          strict=True)
        for name, grid in (("grid_s", truth.grid_s), ("grid_t", truth.grid_t)):
            np.testing.assert_array_equal(np.array(record[name]), grid.points, strict=True)
        assert record["mapping_matrices"].keys() == truth.mapping_matrices.keys()
        for name, value in truth.mapping_matrices.items():
            np.testing.assert_array_equal(np.array(record["mapping_matrices"][name]), value,
                                          strict=True)

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text("{not json")
        with pytest.raises(BadScenario):
            load_scenario(path)
