import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from schrostab import identities
from schrostab.grid import Mesh, extend_shadow, shadow_element, triple_sum_identity_gap
from schrostab.identities import (
    DEFAULT_SUITE_N,
    MAX_SAMPLES,
    SUITE_TOLERANCES,
    boundary_multiplier_gap_y,
    boundary_multiplier_gap_z,
    claim_functionals_gap,
    cross_term_gap,
    run_identity_suite,
)
from schrostab.systems import _dissipation_gap

from conftest import random_complex
from oracles import dissipation_gap

GRID = [(n, k) for n in (1, 2, 7, 64, 255) for k in (0.1, 1.0, 10.0)]


class TestBoundaryMultiplierY:
    def test_zero(self):
        assert boundary_multiplier_gap_y(np.zeros(5), Mesh(4))[0] == 0

    def test_unit_boundary_vector(self):
        # Y = e_{N+1}: every term computable in closed form
        m = Mesh(3)
        Y = np.zeros(4, dtype=complex)
        Y[-1] = 1.0
        gap, scale = boundary_multiplier_gap_y(Y, m)
        assert gap <= 1e-14 * scale

    @pytest.mark.parametrize("n,k", GRID)
    def test_random_states(self, n, k, rng):
        Y = random_complex(rng, n + 1)
        gap, scale = boundary_multiplier_gap_y(Y, Mesh(n))
        assert gap <= 1e-12 * scale

    def test_phase_invariance(self, rng):
        # the identity only sees |.|^2 and real parts of conjugate pairs
        m = Mesh(12)
        Y = random_complex(rng, 13)
        g1 = boundary_multiplier_gap_y(Y, m)[0]
        g2 = boundary_multiplier_gap_y(np.exp(0.7j) * Y, m)[0]
        assert g1 == pytest.approx(g2, abs=1e-13)

    def test_batch_matches_loop(self, rng):
        m = Mesh(9)
        Y = random_complex(rng, 10, 6)
        batched = boundary_multiplier_gap_y(Y, m)[0]
        singles = np.array([boundary_multiplier_gap_y(Y[:, j], m)[0] for j in range(6)])
        np.testing.assert_allclose(batched, singles, atol=1e-15)


class TestBoundaryMultiplierZ:
    def test_zero(self):
        assert boundary_multiplier_gap_z(np.zeros(6), Mesh(4))[0] == 0

    def test_constant_vector(self):
        # constant extended vector: differences vanish, sums telescope
        m = Mesh(5)
        gap, scale = boundary_multiplier_gap_z(np.full(7, 2.0 - 1.0j), m)
        assert gap <= 1e-14 * scale

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            boundary_multiplier_gap_z(np.zeros(5), Mesh(4))

    @pytest.mark.parametrize("n,k", GRID)
    def test_random_extended_vectors(self, n, k, rng):
        Zext = random_complex(rng, n + 2)
        gap, scale = boundary_multiplier_gap_z(Zext, Mesh(n))
        assert gap <= 1e-12 * scale

    def test_shadow_of_random_state(self, rng):
        # the case the analysis actually uses: z the shadow element of y
        m = Mesh(31)
        k = 2.0
        Y = random_complex(rng, 32)
        Z = shadow_element(Y, k, m)
        Zext = extend_shadow(Z, Y, k, m)
        gap, scale = boundary_multiplier_gap_z(Zext, m)
        assert gap <= 1e-12 * scale


class TestCrossTerm:
    def test_zero(self):
        assert cross_term_gap(np.zeros(4), 1.0, Mesh(3))[0] == 0

    @pytest.mark.parametrize("n,k", GRID)
    def test_random_states(self, n, k, rng):
        Y = random_complex(rng, n + 1)
        gap, scale = cross_term_gap(Y, k, Mesh(n))
        assert gap <= 1e-12 * scale

    def test_phase_invariance(self, rng):
        # rotating the state rotates the shadow element too, so the gap
        # stays at roundoff level for every global phase
        m = Mesh(16)
        Y = random_complex(rng, 17)
        for phase in (0.0, 0.7, 1.1, 3.0):
            gap, scale = cross_term_gap(np.exp(1j * phase) * Y, 1.0, m)
            assert gap <= 1e-12 * scale

    def test_batch_matches_loop(self, rng):
        m = Mesh(7)
        Y = random_complex(rng, 8, 5)
        batched = cross_term_gap(Y, 0.5, m)[0]
        singles = np.array([cross_term_gap(Y[:, j], 0.5, m)[0] for j in range(5)])
        # summation order differs between the batched and looped paths, so
        # the roundoff-level gaps agree only to roundoff of the terms
        np.testing.assert_allclose(batched, singles, atol=1e-12)


class TestClaimFunctionals:
    def test_zero_state(self):
        out = claim_functionals_gap(np.zeros(5), 1.0, 2.0, Mesh(4))
        assert out["gap_claim2"] == 0
        assert out["gap_claim3"] == 0

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            claim_functionals_gap(np.zeros(5), 1.0, 0.0, Mesh(4))

    @pytest.mark.parametrize("n,k", GRID)
    def test_random_states(self, n, k, rng):
        Y = random_complex(rng, n + 1)
        out = claim_functionals_gap(Y, k, 3.7, Mesh(n))
        assert out["gap_claim2"] <= 1e-12 * out["scale_claim2"]
        assert out["gap_claim3"] <= 1e-12 * out["scale_claim3"]

    @pytest.mark.parametrize("beta", [-5.0, -0.3, 0.3, 12.0])
    def test_beta_sign_irrelevant(self, beta, rng):
        Y = random_complex(rng, 17)
        out = claim_functionals_gap(Y, 1.0, beta, Mesh(16))
        assert out["gap_claim2"] <= 1e-12 * out["scale_claim2"]
        assert out["gap_claim3"] <= 1e-12 * out["scale_claim3"]


class TestSuite:
    def test_all_pass_defaults(self):
        reports = run_identity_suite(n_values=(1, 2, 7, 64), samples=20, seed=11)
        assert reports
        names = {r.identity for r in reports}
        assert names == set(SUITE_TOLERANCES)
        for r in reports:
            assert r.passed, f"{r.identity} n={r.n} k={r.k}: {r.relative_gap:.3e}"

    def test_perturbation_detected(self):
        reports = run_identity_suite(n_values=(7,), samples=20, seed=11, perturb=1e-6)
        failed = [r for r in reports if not r.passed]
        assert failed
        assert all(r.identity in ("claim2", "claim3") for r in failed)

    def test_samples_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew samples before the cap check")

        monkeypatch.setattr("schrostab.identities._random_states", refuse)
        with pytest.raises(ValueError, match=f"samples {10**12} exceeds the cap of {MAX_SAMPLES}"):
            run_identity_suite(samples=10**12)

    def test_seed_determinism(self):
        a = run_identity_suite(n_values=(2, 7), samples=10, seed=5)
        b = run_identity_suite(n_values=(2, 7), samples=10, seed=5)
        assert [(r.identity, r.n, r.k, r.gap, r.scale) for r in a] == [
            (r.identity, r.n, r.k, r.gap, r.scale) for r in b
        ]

    def test_triple_sum_reports_worst_sample(self):
        # gap and scale must come from the same sample: the one with the
        # largest relative gap; the suite draws u, v, w first for each n
        n, samples, seed = 7, 100, 3
        rng = np.random.default_rng(seed)
        u, v, w = (random_complex(rng, n + 2, samples) for _ in range(3))
        gap = np.abs(triple_sum_identity_gap(u, v, w))
        scale = (n + 2) * np.prod([np.max(np.abs(a), axis=0) for a in (u, v, w)], axis=0)
        worst = int(np.argmax(gap / scale))
        report = run_identity_suite(n_values=(n,), samples=samples, seed=seed)[0]
        assert (report.identity, report.k) == ("triple_sum", 0.0)
        assert (report.gap, report.scale) == (gap[worst], scale[worst])

    def test_beta_range_boundary(self):
        # the largest double whose square is finite runs; the next one is refused before
        # beta**2 can raise OverflowError, and 1e-150 once its terms overflow at N = 64
        edge = math.sqrt(sys.float_info.max)
        above = math.nextafter(edge, math.inf)
        assert math.isfinite(edge * edge) and math.isinf(above * above)
        reports = run_identity_suite(n_values=(2, 64), samples=5, beta=edge)
        assert all(r.passed for r in reports)
        with pytest.raises(ValueError, match=re.escape(f"with a finite square, got beta={above!r}")):
            run_identity_suite(n_values=(2, 64), samples=5, beta=above)
        with pytest.raises(ValueError, match="beta=1e-150 puts the claim-2 or claim-3 terms"):
            run_identity_suite(n_values=(2, 64), samples=5, beta=1e-150)


def _as_tuples(reports):
    return [(r.identity, r.n, r.k, r.gap, r.scale, r.passed) for r in reports]


class TestPublicGapsAreTheKernels:
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_batch(self, n, rng):
        mesh, k, beta = Mesh(n), 0.7, 3.7
        Y = random_complex(rng, n + 1, 9)
        b = identities._block(Y, k, mesh)
        pairs = [
            (dissipation_gap(Y, k, mesh), _dissipation_gap(b.Y, b.Z, b.DY, k, mesh)),
            (boundary_multiplier_gap_y(Y, mesh),
             identities._boundary_gap(b.Y[-1], b.y_mid, b.y_dif, mesh)),
            (cross_term_gap(Y, k, mesh), identities._cross_term_gap(b, mesh)),
        ]
        for public, kernel in pairs:
            for a, c in zip(public, kernel):
                np.testing.assert_array_equal(a, c)
        public = claim_functionals_gap(Y, k, beta, mesh)
        kernel = identities._claim_functionals_gap(b, beta, mesh)
        assert public.keys() == kernel.keys()
        for key in public:
            np.testing.assert_array_equal(public[key], kernel[key])


@pytest.mark.parametrize("sizes", [[(2, 1)], [(66, 496), (65, 496), (3, 7)]])
def test_random_states_are_the_two_draws(sizes):
    # one complex array filled draw by draw, bit for bit the sum of the draws
    mine, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for shape in sizes:
        got = identities._random_states(mine, *shape)
        expect = theirs.standard_normal(shape) + 1j * theirs.standard_normal(shape)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


class TestColumnBlocks:
    @pytest.mark.parametrize("samples", [1, 2, 3, 7, 100, 128, 2000])
    @pytest.mark.parametrize("budget", [1, 9, 30, 1 << 15])
    def test_blocks_partition_the_batch(self, samples, budget, monkeypatch):
        monkeypatch.setattr("schrostab.identities._BLOCK_ELEMENTS", budget)
        rows = 9
        blocks = identities._column_blocks(samples, rows)
        np.testing.assert_array_equal(np.concatenate([np.arange(samples)[c] for c in blocks]),
                                      np.arange(samples))
        widths = [c.stop - c.start for c in blocks]
        # a lone column is summed in another order than a column of a wider block
        assert min(widths) >= 2 or widths == [1]
        assert max(widths) <= max(2, budget // rows) + 1

    @pytest.mark.parametrize("perturb", [0.0, 1e-6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_do_not_depend_on_block_width(self, seed, perturb, monkeypatch):
        for n in DEFAULT_SUITE_N:
            # three columns per block leave one over from 100, folded into the last block
            monkeypatch.setattr("schrostab.identities._BLOCK_ELEMENTS", 3 * (n + 2))
            narrow = run_identity_suite(n_values=(n,), samples=100, seed=seed, perturb=perturb)
            monkeypatch.setattr("schrostab.identities._BLOCK_ELEMENTS", 100 * (n + 2))
            whole = run_identity_suite(n_values=(n,), samples=100, seed=seed, perturb=perturb)
            assert _as_tuples(narrow) == _as_tuples(whole)
            failed = {r.identity for r in narrow if not r.passed}
            if perturb:
                assert "claim2" in failed and failed <= {"claim2", "claim3"}
            else:
                assert not failed


class TestPrefetch:
    @pytest.mark.parametrize("fail_at", [0, 4])
    def test_draw_error_propagates(self, fail_at, monkeypatch):
        draw = identities._random_states
        calls = []

        def failing(rng, size, batch):
            calls.append(size)
            if len(calls) > fail_at:
                raise RuntimeError("draw failed")
            return draw(rng, size, batch)

        monkeypatch.setattr("schrostab.identities._random_states", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            run_identity_suite(n_values=(2, 7), samples=5)
        assert threading.active_count() == before

    def test_evaluation_error_leaves_no_thread(self):
        before = threading.active_count()
        with pytest.raises(ValueError, match="beta must be nonzero"):
            run_identity_suite(n_values=(2, 7), samples=5, beta=0.0)
        assert threading.active_count() == before

    def test_draws_run_in_order_on_one_worker(self, monkeypatch):
        draw = identities._random_states
        seen = []

        def recording(rng, size, batch):
            seen.append((threading.current_thread(), threading.active_count(), size))
            return draw(rng, size, batch)

        monkeypatch.setattr("schrostab.identities._random_states", recording)
        before = threading.active_count()
        run_identity_suite(n_values=(2, 7), samples=5)
        assert threading.active_count() == before
        workers = {thread for thread, _, _ in seen}
        assert len(workers) == 1 and threading.main_thread() not in workers
        assert max(count for _, count, _ in seen) == before + 1
        # per grid size: u, v, w, then Y and Zext for each of the three gains
        assert [size for _, _, size in seen] == [4, 4, 4] + [3, 4] * 3 + [9, 9, 9] + [8, 9] * 3


def _serial(pool, task, evaluate, blocks):
    for cols in blocks:
        evaluate(cols)
    return pool.submit(task).result()


class TestSharedBlocks:
    @pytest.mark.parametrize("perturb", [0.0, 1e-6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_match_serial_blocks(self, seed, perturb, monkeypatch):
        # 64 columns of 257 rows make up to 256 KiB blocks, so N = 255 has 10 of them
        samples = 640
        assert len(identities._column_blocks(samples, 255 + 2)) >= 10
        shared = run_identity_suite(samples=samples, seed=seed, perturb=perturb)
        monkeypatch.setattr("schrostab.identities._shared", _serial)
        serial = run_identity_suite(samples=samples, seed=seed, perturb=perturb)
        assert _as_tuples(shared) == _as_tuples(serial)
        assert {r.n for r in shared} == set(DEFAULT_SUITE_N)

    def test_every_block_once_and_the_worker_takes_some(self):
        # each thread's first block waits until the other thread has taken one; the GIL
        # changes hands every microsecond, so a block taken twice or lost would show
        interval = sys.getswitchinterval()
        blocks = [slice(i, i + 1) for i in range(2000)]
        taken, seen, both_took = [], set(), threading.Barrier(2, timeout=30)

        def evaluate(cols):
            thread = threading.current_thread()
            taken.append((thread, cols.start))
            if thread not in seen:
                seen.add(thread)
                both_took.wait()

        before = threading.active_count()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                worker = identities._shared(pool, threading.current_thread, evaluate, blocks)
                assert threading.active_count() <= before + 1
        finally:
            sys.setswitchinterval(interval)
        assert worker is not threading.main_thread()
        assert sorted(start for _, start in taken) == list(range(2000))
        assert {thread for thread, _ in taken} == {threading.main_thread(), worker}

    def test_worker_block_error_propagates(self, monkeypatch):
        # the worker's first block fails once the main thread has taken one too
        gain_block, both_took, seen = identities._gain_block, threading.Barrier(2, timeout=30), set()

        def failing(*args):
            thread = threading.current_thread()
            if thread not in seen:
                seen.add(thread)
                both_took.wait()
            if thread is not threading.main_thread():
                raise RuntimeError("block failed")
            return gain_block(*args)

        monkeypatch.setattr("schrostab.identities._gain_block", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            run_identity_suite(n_values=(255,), samples=200)
        assert len(seen) == 2
        assert threading.active_count() == before
