"""Punctured sums and the seven-term decomposition."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from steinclt import harness, stein, sunklodas
from steinclt.dynamics import LsvFamily, SequentialSequence, trajectory
from steinclt.harness import RunManifest
from steinclt.linalg import DegenerateCovariance
from steinclt.quadrature import gauss_legendre_01
from steinclt.stats import build_ensemble
from steinclt.stein import (
    _CHUNK_VALUES,
    SteinSolution,
    TanhFactor,
    builtin_test_functions,
    product_function,
    quadratic_function,
)
from steinclt.sunklodas import (
    EnsembleMatrix,
    _distinct_rows,
    decompose,
    delta_matrix,
    punctured_sums,
)


def _tanh_pair():
    return product_function((TanhFactor(0.8, 0.1), TanhFactor(0.5, -0.3)), 1.0, "pair")


def _tanh_single():
    return product_function((TanhFactor(0.7, 0.2),), 1.0, "single")


def _doubling_ensemble(samples, times, seed):
    seq = SequentialSequence(LsvFamily(), tuple(np.zeros(times + 1)), beta_star=0.25)
    x0 = np.random.default_rng(seed).random(samples)
    orbit = trajectory(seq, x0, times - 1)
    raw = orbit.T[:, :, None]
    return EnsembleMatrix.from_raw(raw, np.eye(1), 1.0)


def _exhaustive_product_ensemble(slot_values, slot_probs, b=None):
    """All sample paths of independent slots, with exact product weights."""
    slot_values = [np.atleast_2d(np.asarray(v, dtype=float)) for v in slot_values]
    d = slot_values[0].shape[1]
    rows = []
    weights = []
    for combo in itertools.product(*[range(len(v)) for v in slot_values]):
        rows.append([slot_values[i][j] for i, j in enumerate(combo)])
        weights.append(math.prod(p[j] for p, j in zip(slot_probs, combo)))
    raw = np.asarray(rows).reshape(len(rows), len(slot_values), d)
    bound = max(float(np.abs(v).max()) for v in slot_values)
    if b is None:
        b = np.eye(d)
    return EnsembleMatrix.from_raw(raw, b, bound, weights=np.asarray(weights))


def test_punctured_sums_enumeration():
    y = np.array([[1.0], [2.0], [4.0]])
    w, w11, y11 = punctured_sums(y, 1, 1)
    assert w[0] == 7.0 and w11[0] == 0.0 and y11[0] == 5.0
    w, w10, y10 = punctured_sums(y, 1, 0)
    assert w10[0] == 5.0 and y10[0] == 2.0
    w, wm1, ym1 = punctured_sums(y, 1, -1)
    assert wm1[0] == 7.0 and ym1[0] == 0.0
    # radius N-1 always removes everything
    _, w_all, _ = punctured_sums(y, 0, 2)
    assert w_all[0] == 0.0
    # boundary ring: only the interior neighbor exists
    _, _, y_edge = punctured_sums(y, 0, 1)
    assert y_edge[0] == 2.0


def test_punctured_sums_stacked_and_errors():
    rng = np.random.default_rng(1)
    stack = rng.normal(size=(5, 4, 2))
    w, wnm, ynm = punctured_sums(stack, 2, 1)
    assert w.shape == wnm.shape == ynm.shape == (5, 2)
    np.testing.assert_allclose(w, stack.sum(axis=1), atol=1e-14)
    np.testing.assert_allclose(wnm, stack[:, 0] , atol=1e-14)
    np.testing.assert_allclose(ynm, stack[:, 1] + stack[:, 3], atol=1e-14)
    with pytest.raises(IndexError):
        punctured_sums(stack, 4, 0)
    with pytest.raises(IndexError):
        punctured_sums(stack, 0, 4)


@pytest.mark.parametrize("big_n", [1, 2, 5])
@pytest.mark.parametrize("d", [1, 3])
def test_punctured_sums_match_their_definition(big_n, d):
    rng = np.random.default_rng(10 * big_n + d)
    stack = rng.normal(size=(3, big_n, d))
    for n in range(big_n):
        for m in range(-1, big_n):
            got = punctured_sums(stack, n, m)
            for s, y in enumerate(stack):
                w = sum((y[i] for i in range(big_n)), np.zeros(d))
                window = sum((y[i] for i in range(big_n) if abs(i - n) <= m), np.zeros(d))
                ring = sum((y[i] for i in range(big_n) if abs(i - n) == m), np.zeros(d))
                for stacked, single, want in zip(got, punctured_sums(y, n, m), (w, w - window, ring)):
                    assert stacked.shape == (3, d) and single.shape == (d,)
                    np.testing.assert_allclose(stacked[s], want, rtol=0, atol=1e-14)
                    np.testing.assert_allclose(single, want, rtol=0, atol=1e-14)


def test_hessian_telescoping_over_puncture_radius():
    h = _tanh_pair()
    rng = np.random.default_rng(2)
    y = 0.4 * rng.normal(size=(6, 2))
    for n in (0, 3, 5):
        acc = np.zeros((2, 2))
        prev = h.hessian(punctured_sums(y, n, -1)[1])
        for k in range(6):
            cur = h.hessian(punctured_sums(y, n, k)[1])
            acc += prev - cur
            prev = cur
        want = h.hessian(y.sum(axis=0)) - h.hessian(punctured_sums(y, n, 5)[1])
        np.testing.assert_allclose(acc, want, atol=1e-14)


def test_delta_matrix_endpoints():
    h = _tanh_pair()
    rng = np.random.default_rng(3)
    y = 0.3 * rng.normal(size=(5, 2))
    np.testing.assert_allclose(delta_matrix(h, y, 2, 1, 0.0), 0.0, atol=1e-15)
    _, wnk, ynk = punctured_sums(y, 2, 1)
    want = h.hessian(wnk + ynk) - h.hessian(wnk)
    np.testing.assert_allclose(delta_matrix(h, y, 2, 1, 1.0), want, atol=1e-14)
    with pytest.raises(ValueError):
        delta_matrix(h, y, 2, 1, 1.5)


def test_identity_exact_for_quadratic():
    ens = _doubling_ensemble(400, 5, seed=4)
    h = quadratic_function([[1.0]], (0.3,))
    ledger = decompose(ens, h)
    # constant Hessian kills every correction term and the direct side
    for name, (val, _) in ledger.terms.items():
        if name != "none":
            assert abs(val) < 1e-12, name
    assert abs(ledger.residual) < 1e-12
    assert not ledger.exact


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stein_solution_of_a_polynomial_leaves_e3_to_e7_exactly_zero(d):
    # affine and quadratic h have a Hessian of A that is the same at every
    # point (zero for affine), so every centred or differenced Hessian is 0.0
    rng = np.random.default_rng(20 + d)
    vals = rng.standard_normal((60, 5, d))
    ens = EnsembleMatrix.from_raw(vals, np.eye(d), float(np.abs(vals).max()))
    for h in builtin_test_functions(d)[:2]:
        sol = SteinSolution(h, ens.w_covariance(), gh_order=6, u_order=8)
        ledger = decompose(ens, sol)
        for name in ("E3", "E4", "E5", "E6", "E7"):
            assert ledger.terms[name] == (0.0, 0.0), (h.name, name)
        assert abs(ledger.residual) < 1e-12, h.name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ledger_is_byte_identical_in_one_u_node_blocks(d, monkeypatch):
    # sixteen points per chunk and one u-node per block, against the default
    gh = 6
    rng = np.random.default_rng(60 + d)
    vals = rng.standard_normal((60, 5, d))
    ens = EnsembleMatrix.from_raw(vals, np.eye(d), float(np.abs(vals).max()))
    sols = [SteinSolution(h, ens.w_covariance(), gh_order=gh, u_order=8) for h in builtin_test_functions(d)[:3]]
    default = [decompose(ens, sol).rows() for sol in sols]
    monkeypatch.setattr(stein, "_CHUNK_VALUES", 16 * gh**d)
    for sol, want in zip(sols, default):
        ledger = decompose(ens, sol)
        assert repr(ledger.rows()) == repr(want), sol.h.name
        if sol.h.name == "quadratic":
            for name in ("E3", "E4", "E5", "E6", "E7"):
                assert ledger.terms[name] == (0.0, 0.0), name
    affine = sols[0].evaluate(ens.y_values().sum(axis=1), ("hessian",))["hessian"]
    np.testing.assert_array_equal(affine, 0.0)


def test_identity_exact_on_weighted_spaces():
    rng = np.random.default_rng(5)
    h = _tanh_single()
    worst = 0.0
    for trial in range(6):
        vals = [0.6 * rng.normal(size=(2, 1)) for _ in range(4)]
        probs = []
        for _ in range(4):
            p = rng.uniform(0.2, 0.8)
            probs.append([p, 1.0 - p])
        ens = _exhaustive_product_ensemble(vals, probs)
        ledger = decompose(ens, h)
        assert ledger.exact
        assert ledger.combined_stderr == 0.0
        worst = max(worst, abs(ledger.residual))
    assert worst < 1e-9


def test_identity_exact_on_weighted_spaces_d2():
    rng = np.random.default_rng(6)
    h = _tanh_pair()
    for trial in range(3):
        vals = [0.4 * rng.normal(size=(3, 2)) for _ in range(3)]
        probs = []
        for _ in range(3):
            p = rng.dirichlet(np.ones(3))
            probs.append(list(p))
        ens = _exhaustive_product_ensemble(vals, probs)
        ledger = decompose(ens, h)
        assert abs(ledger.residual) < 1e-9


def _reference_terms(ens, h, u_order=48):
    """E1..E7 from their definitions: Gauss-Legendre u-integrals of
    delta^{n,m}(u) and explicit k-sums of centered increments."""
    y = ens.y_values()
    s_count, big_n, _ = y.shape
    un, uw = gauss_legendre_01(u_order)
    delta = {
        (s, n, k): delta_matrix(h, y[s], n, k)
        for s in range(s_count)
        for n in range(big_n)
        for k in range(big_n)
    }
    mean_delta = {
        (n, k): sum(ens.weights[s] * delta[s, n, k] for s in range(s_count))
        for n in range(big_n)
        for k in range(big_n)
    }
    terms = dict.fromkeys(["E1", "E2", "E3", "E4", "E5", "E6", "E7"], 0.0)
    for s in range(s_count):
        p = ens.weights[s]
        for n in range(big_n):
            yn = y[s, n]
            rings = [punctured_sums(y[s], n, m)[2] for m in range(big_n)]
            for m in range(big_n):
                integ = sum(q_w * delta_matrix(h, y[s], n, m, q_u) for q_u, q_w in zip(un, uw))
                terms["E2" if m == 0 else "E1"] -= p * yn @ integ @ rings[m]
            for k in range(1, big_n):
                terms["E5"] -= p * yn @ (delta[s, n, k] - mean_delta[n, k]) @ yn
            terms["E7"] += p * yn @ mean_delta[n, 0] @ yn
            for m in range(1, big_n):
                for k in range(m + 1, min(2 * m, big_n - 1) + 1):
                    terms["E3"] -= p * yn @ (delta[s, n, k] - mean_delta[n, k]) @ rings[m]
                for k in range(2 * m + 1, big_n):
                    terms["E4"] -= p * yn @ (delta[s, n, k] - mean_delta[n, k]) @ rings[m]
                cum = sum(mean_delta[n, k] for k in range(m + 1))
                terms["E6"] += p * yn @ cum @ rings[m]
    return terms


def test_terms_match_definitions_on_correlated_space():
    # atoms drawn jointly over all times, so slots are dependent and every
    # term, E3 and E4 included, carries mass
    rng = np.random.default_rng(16)
    vals = 0.4 * rng.standard_normal((10, 5, 2))
    weights = rng.dirichlet(np.full(10, 2.0))
    ens = EnsembleMatrix.from_raw(vals, np.eye(2), float(np.abs(vals).max()), weights=weights)
    h = _tanh_pair()
    ledger = decompose(ens, h)
    want = _reference_terms(ens, h)
    for name, value in want.items():
        assert abs(value) > 1e-5, name
        assert abs(ledger.terms[name][0] - value) <= 1e-10, name
    assert abs(ledger.residual) < 1e-12


def test_product_space_term_structure():
    # independent slots with mean-zero atoms: only E2 and E7 survive
    rng = np.random.default_rng(7)
    vals = []
    for _ in range(4):
        a = rng.uniform(0.2, 0.7)
        vals.append(np.array([[a], [-a]]))
    probs = [[0.5, 0.5]] * 4
    ens = _exhaustive_product_ensemble(vals, probs)
    ledger = decompose(ens, _tanh_single())
    for name in ("E1", "E3", "E4", "E5", "E6"):
        assert abs(ledger.terms[name][0]) < 1e-12, name
    e2e7 = ledger.terms["E2"][0] + ledger.terms["E7"][0]
    assert abs(e2e7 - ledger.lhs[0]) < 1e-9
    assert abs(ledger.terms["E2"][0]) > 1e-6


def test_monte_carlo_term_consistency():
    h = _tanh_single()
    small = decompose(_doubling_ensemble(600, 4, seed=8), h)
    big = decompose(_doubling_ensemble(2400, 4, seed=9), h)
    for name in ("E1", "E2", "E5", "E7"):
        v1, s1 = small.terms[name]
        v2, s2 = big.terms[name]
        assert abs(v1 - v2) <= 3.0 * (s1 + s2) + 1e-12, name
    assert abs(small.lhs[0] - big.lhs[0]) <= 3.0 * (small.lhs[1] + big.lhs[1])


@pytest.mark.parametrize("d, gh", [(1, 16), (2, 8)])
def test_point_path_gives_each_point_its_bits_in_any_batch(d, gh):
    # both calls span chunk boundaries and end on a one-row chunk
    sol = SteinSolution(builtin_test_functions(d)[2], np.eye(d) + 0.3 - 0.3 * np.eye(d),
                        gh_order=gh, u_order=8)
    chunk = _CHUNK_VALUES // gh**d
    rng = np.random.default_rng(30 + d)
    distinct = rng.normal(size=(chunk + 1, d))
    inv = np.concatenate([rng.permutation(chunk + 1), rng.integers(0, chunk + 1, chunk)])
    every = sol.evaluate(distinct[inv])
    once = sol.evaluate(distinct)
    for name, field in every.items():
        assert np.array_equal(field, once[name][inv]), name


class _Counting:
    """A solution that records the rows of every `evaluate` call."""

    def __init__(self, sol):
        self.sol, self.sigma, self.rows = sol, sol.sigma, []

    def evaluate(self, points, need):
        self.rows.append(np.array(points))
        return self.sol.evaluate(points, need)


def _dedupe_ensemble(d: int, zeros: bool, big_n: int) -> EnsembleMatrix:
    rng = np.random.default_rng(40 + d)
    if not zeros:
        return EnsembleMatrix.from_raw(rng.uniform(-1.0, 1.0, size=(50, big_n, d)), np.eye(d), 1.0)
    # entries in {-0.5, 0, 0.5} and their negatives: the mean is exactly 0,
    # three samples are all zeros, and exact punctured sums repeat across
    # samples.  No row holds -0.0 (numpy sums from +0.0, and an exact zero
    # difference is +0.0); `test_distinct_rows_keep_signed_zeros_apart`
    # covers that case.
    half = 0.5 * rng.integers(-1, 2, size=(25, big_n, d))
    half[:3] = 0.0
    return EnsembleMatrix(np.concatenate([half, -half]), np.eye(d), 1.0)


@pytest.mark.parametrize(
    "d, zeros", [(1, False), (2, False), (1, True), (2, True)],
    ids=["1", "2", "1-exact-zeros", "2-exact-zeros"],
)
def test_decompose_evaluates_each_distinct_punctured_sum_once(d, zeros):
    big_n = 6
    ens = _dedupe_ensemble(d, zeros, big_n)
    sol = SteinSolution(_tanh_pair() if d == 2 else _tanh_single(), ens.w_covariance(),
                        gh_order=8, u_order=8)
    slots = np.stack([
        punctured_sums(ens.y_values(), n, m)[1]
        for n in range(big_n) for m in range(-1, big_n)
    ], axis=1).reshape(-1, d)
    counting = _Counting(sol)
    ledger = decompose(ens, counting)
    (rows,) = counting.rows
    seen = {row.tobytes() for row in rows}
    assert len(seen) == len(rows) == ledger.distinct_points
    assert seen == {row.tobytes() for row in slots}
    assert ledger.distinct_points < len(slots)
    # the same rows as a field-by-field sort of the bit patterns finds
    by_fields = np.unique(slots.view(np.int64), axis=0).view(float)
    assert ledger.distinct_points == len(by_fields)
    if zeros:
        assert np.count_nonzero(~slots.any(axis=1)) > ens.samples

    # every slot evaluated in one call, served row by row, gives the same
    # ledger, and so do the field-by-field distinct rows served by lookup
    fields = sol.evaluate(slots, ("gradient", "hessian"))
    first = {}
    for i, row in enumerate(slots):
        j = first.setdefault(row.tobytes(), i)
        for field in fields.values():
            assert np.array_equal(field[i], field[j])
    at_fields = sol.evaluate(by_fields, ("gradient", "hessian"))
    field_row = {row.tobytes(): i for i, row in enumerate(by_fields)}

    class Served:
        sigma = sol.sigma

        def __init__(self, table, index):
            self.table, self.index = table, index

        def evaluate(self, points, need):
            idx = [self.index[row.tobytes()] for row in points]
            return {name: self.table[name][idx] for name in need}

    for served in (Served(fields, first), Served(at_fields, field_row)):
        other = decompose(ens, served)
        assert other.terms == ledger.terms
        assert other.lhs == ledger.lhs
        assert other.distinct_points == ledger.distinct_points


@pytest.mark.parametrize("d, weighted", [(1, False), (2, False), (2, True)])
def test_sample_blocks_keep_the_single_block_ledger(d, weighted, monkeypatch):
    # 61 samples in blocks of 12: five full blocks and a ragged last one of a
    # single sample, against one block of all 61
    big_n = 5
    rng = np.random.default_rng(70 + d)
    vals = rng.uniform(-1.0, 1.0, size=(61, big_n, d))
    weights = rng.dirichlet(np.ones(61)) if weighted else None
    ens = EnsembleMatrix.from_raw(vals, np.eye(d), 2.0, weights=weights)
    sol = SteinSolution(_tanh_pair() if d == 2 else _tanh_single(), ens.w_covariance(),
                        gh_order=8, u_order=8)
    whole = _Counting(sol)
    single = decompose(ens, whole)
    assert len(whole.rows) == 1
    monkeypatch.setattr(sunklodas, "_BLOCK_SLOTS", 12 * big_n * (big_n + 1) + 7)
    blocks = _Counting(sol)
    ledger = decompose(ens, blocks)
    assert len(blocks.rows) == 6
    for rows in blocks.rows:
        assert len({row.tobytes() for row in rows}) == len(rows)
    assert len(blocks.rows[-1]) <= big_n * (big_n + 1)      # one sample's slots
    assert ledger.distinct_points == sum(len(rows) for rows in blocks.rows)
    # per-sample shares, and the mean Hessian summed in sample order (weighted
    # or not), keep their bits; E3-E5 split off a part linear in that mean
    exact = ("E1", "E2", "E6", "E7")
    for name in exact:
        assert ledger.terms[name] == single.terms[name], name
    assert ledger.lhs == single.lhs
    scale = max(abs(v) for v, _ in single.terms.values())
    for name in set(single.terms) - set(exact):
        for got, want in zip(ledger.terms[name], single.terms[name]):
            assert abs(got - want) <= 1e-15 * scale, name


def test_evaluate_at_decompose_points_holds_a_few_chunks():
    # the benchmark's decompose-d2 config (LSV, poly_pair, S = 125, N = 8):
    # its 3,376 distinct punctured sums, evaluated at gh 8 and u 8 as the
    # ledger evaluates them.  Each last-axis table is reduced as its factor
    # yields it, before the other axes' tables are built: the traced peak was
    # 14.65 chunks (_CHUNK_VALUES float64 values) holding the whole tuple,
    # and is 8.64 now
    cfg = harness.validate_config({
        "version": 1, "observable": "poly_pair", "samples": 125, "seed": 20260815,
        "system": {"kind": "random", "family": "lsv", "beta_star": 0.25,
                   "driver": {"kind": "iid-uniform", "low": 0.2, "high": 0.25}},
    })
    seed = harness.stage_seed(cfg["seed"], "decompose-ensemble")
    ens = build_ensemble(harness.build_system(cfg), harness.build_observable(cfg), 8, 125, seed)
    sol = SteinSolution(builtin_test_functions(2)[2], ens.w_covariance(), gh_order=8, u_order=8)
    counting = _Counting(sol)
    decompose(ens, counting)
    (points,) = counting.rows
    assert len(points) == 3376
    sol.evaluate(points[:1], ("gradient", "hessian"))
    tracemalloc.start()
    try:
        sol.evaluate(points, ("gradient", "hessian"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * _CHUNK_VALUES * 8


def test_distinct_rows_keep_signed_zeros_apart():
    rows = np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [1.5, 2.0], [-0.0, -0.0], [0.0, 0.0]])
    distinct, inv = _distinct_rows(rows)
    assert distinct.shape == (4, 2)
    assert distinct[inv].tobytes() == rows.tobytes()
    by_fields = np.unique(rows.view(np.int64), axis=0).view(float)
    assert {r.tobytes() for r in distinct} == {r.tobytes() for r in by_fields}
    assert len(np.unique(rows, axis=0)) == 2      # a value compare merges them


def test_ledger_csv_round_trip(tmp_path):
    ens = _doubling_ensemble(400, 4, seed=10)
    ledger = decompose(ens, _tanh_single())
    manifest = RunManifest("ledger", "decompose", tmp_path)
    path = manifest.write_rows("decomposition.csv", ("term", "value", "stderr"), ledger.rows())
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "term,value,stderr"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "lhs", "residual"]
    assert lines[-1] == f"residual,{ledger.residual!r},"
    assert lines[-2] == f"lhs,{ledger.lhs[0]!r},{ledger.lhs[1]!r}"


def test_decompose_error_paths(monkeypatch):
    h = _tanh_single()
    flat = EnsembleMatrix(np.zeros((10, 3, 1)), np.eye(1), 1.0)
    with pytest.raises(DegenerateCovariance):
        decompose(flat, h)
    ens = _doubling_ensemble(300, 4, seed=11)
    # a block holds at least one sample's N (N + 1) = 20 punctured sums
    monkeypatch.setattr(sunklodas, "_BLOCK_SLOTS", 19)
    with pytest.raises(ValueError, match="exceed a ledger block of 19"):
        decompose(ens, h)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="disagrees"):
        decompose(ens, h, sigma=np.array([[99.0]]))
    # the self-consistent matrix passes
    ledger = decompose(ens, h, sigma=ens.w_covariance())
    assert math.isfinite(ledger.residual)


def test_ensemble_matrix_validation():
    with pytest.raises(ValueError):
        EnsembleMatrix(np.zeros((4, 3)), np.eye(1), 1.0)
    with pytest.raises(ValueError):
        EnsembleMatrix(np.zeros((4, 3, 2)), np.eye(1), 1.0)
    with pytest.raises(ValueError):
        EnsembleMatrix(np.zeros((4, 3, 2)), np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        EnsembleMatrix(np.zeros((4, 3, 1)), np.eye(1), 1.0, weights=np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="not centered"):
        EnsembleMatrix(np.full((10000, 3, 1), 0.4), np.eye(1), 1.0)
    with pytest.raises(ValueError, match="twice the declared bound"):
        EnsembleMatrix(np.full((4, 3, 1), 0.0) + np.array([3.0, -3.0, 0.0, 0.0])[:, None, None], np.eye(1), 1.0)


def test_ensemble_matrix_sums_and_normalization():
    rng = np.random.default_rng(12)
    raw = 0.5 * rng.normal(size=(200, 4, 2))
    ens = EnsembleMatrix.from_raw(raw, np.eye(2), 2.0)
    np.testing.assert_allclose(ens.values.mean(axis=0), 0.0, atol=1e-14)
    np.testing.assert_allclose(ens.w_sums(), ens.values.sum(axis=1), atol=1e-14)
    b = np.array([[2.0, 0.0], [0.0, 4.0]])
    scaled = ens.with_normalization(b)
    np.testing.assert_allclose(scaled.y_values(), ens.values @ np.linalg.inv(b).T, atol=1e-14)
    cov = ens.w_covariance()
    assert cov.shape == (2, 2)
    np.testing.assert_allclose(cov, cov.T, atol=1e-15)
    assert ens.samples == 200 and ens.times == 4 and ens.dimension == 2

