"""Cosine similarity, optimal assignment, and clip-wide alignment."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from queryshift.cli import main
from queryshift.core import ClipQueryTensor, write_tensor
from queryshift.matching import (
    _TIGHT_TOL,
    ClipAlignment,
    _lex_smallest_tight_matching,
    _solve_min_cost,
    align_clip,
    cosine_similarity,
    optimal_match,
)

from oracles import (
    brute_force_match,
    numpy_solve_min_cost,
    pairwise_cosine_similarity,
    recursive_lex_smallest_tight_matching,
)


def _pair_sim(a, b):
    """The (N, N) similarity of two frames' query rows, from the two-frame clip of them."""
    return cosine_similarity(ClipQueryTensor(np.array([a, b], dtype=np.float64)))[0]


def _random_orthonormal(n, d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, n)))
    return q.T[:n]


# ---------------------------------------------------------------------------
# cosine_similarity
# ---------------------------------------------------------------------------


def test_cosine_orthonormal_identity():
    sim = _pair_sim(np.eye(3), np.eye(3))
    assert np.array_equal(sim, np.eye(3))


def test_cosine_antipodal_diagonal():
    sim = _pair_sim(np.eye(3) * 2.5, np.eye(3) * -0.5)
    assert np.allclose(np.diag(sim), -1.0)


def test_cosine_closed_form_2x2():
    s = math.sqrt(0.5)
    sim = _pair_sim([(1.0, 0.0), (0.0, 1.0)], [(s, s), (s, -s)])
    want = np.array([[s, s], [s, -s]])
    assert np.max(np.abs(sim - want)) <= 1e-12


def test_cosine_zero_norm_rows_give_zero():
    sim = _pair_sim([(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0), (0.0, 0.0)])
    assert sim[0].tolist() == [0.0, 0.0]
    assert sim[:, 1].tolist() == [0.0, 0.0]
    assert sim[1, 0] == 0.0


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_cosine_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((5, 7))
    scales_a = rng.uniform(0.1, 10.0, size=(5, 1))
    s1 = _pair_sim(a, b)
    s2 = _pair_sim(a * scales_a, b * 3.7)
    assert np.allclose(s1, s2, atol=1e-12)


def _permuted_clip(scale):
    """A 3 x 5 x 8 clip whose frames 1 and 2 permute frame 0's rows, times ``scale``.

    Returns the clip and its true (3, 5) ``per_frame``.
    """
    rng = np.random.default_rng(0)
    first = rng.standard_normal((5, 8))
    per_frame = np.array([np.arange(5), rng.permutation(5), rng.permutation(5)])
    return ClipQueryTensor(first[per_frame] * scale), per_frame


_EXTREME_SCALES = [1e200, 1e-200, 1e-310]  # squared norms overflow, underflow; subnormal rows


@pytest.mark.parametrize("scale", _EXTREME_SCALES)
def test_align_recovers_permutations_at_extreme_scales(scale):
    clip, per_frame = _permuted_clip(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing norm warns
        alignment = align_clip(clip)
    assert np.array_equal(alignment.per_frame, per_frame)
    assert alignment.pair_totals == pytest.approx((5.0, 5.0), abs=1e-9)


@pytest.mark.parametrize("scale", _EXTREME_SCALES)
def test_match_command_recovers_permutations_at_extreme_scales(scale, tmp_path, capsys):
    clip, per_frame = _permuted_clip(scale)
    write_tensor(clip, tmp_path / "q.qtn")
    assert main(["match", "--queries", str(tmp_path / "q.qtn")]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["per_frame"] == per_frame.tolist()
    assert err == ""


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(1, 6),
    st.integers(1, 8),
    st.integers(-1000, 1000),
)
@settings(max_examples=60, deadline=None)
def test_scaling_a_frame_by_a_power_of_two_keeps_the_alignment(seed, t_len, n, d, k):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((t_len, n, d))
    data[rng.random((t_len, n)) < 0.1] = 0.0  # some zero-norm queries
    t = int(rng.integers(t_len))
    scaled = data.copy()
    scaled[t] = np.ldexp(data[t], k)
    nonzero = np.abs(scaled[scaled != 0.0])
    assume(nonzero.size == 0 or (nonzero.min() >= np.finfo(np.float64).tiny
                                 and np.all(np.isfinite(nonzero))))
    want, got = align_clip(ClipQueryTensor(data)), align_clip(ClipQueryTensor(scaled))
    assert np.array_equal(got.per_frame, want.per_frame)
    assert got.pair_totals == want.pair_totals


def test_cosine_similarity_is_a_read_only_array():
    sim = cosine_similarity(ClipQueryTensor(np.stack([np.eye(3)] * 3)))
    assert isinstance(sim, np.ndarray) and sim.dtype == np.float64 and sim.shape == (2, 3, 3)
    with pytest.raises(ValueError):
        sim[0, 0, 0] = 0.5
    assert cosine_similarity(ClipQueryTensor(np.ones((1, 4, 2)))).shape == (0, 4, 4)


def _similarity_clip(t_len, n, d, seed):
    """A (T, N, D) clip with zero rows, exact ties and row scales from subnormal to 1e300."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((t_len, n, d))
    if rng.random() < 0.3:  # ties within a frame
        data = np.round(data)
    if rng.random() < 0.3 and t_len > 1:  # frame 1 a permutation of frame 0: ties across frames
        data[1] = data[0][rng.permutation(n)]
    data *= rng.choice([1.0, 1e300, 1e-300, 1e-310], size=(t_len, n, 1))
    data[rng.random((t_len, n)) < 0.2] = 0.0
    return ClipQueryTensor(data)


@given(st.integers(1, 5), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
@example(t_len=3, n=100, d=256, seed=0)
@example(t_len=4, n=1, d=5, seed=1)
@example(t_len=4, n=6, d=1, seed=2)
@example(t_len=1, n=3, d=4, seed=3)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_stacked_similarity_equals_the_pairwise_oracle(t_len, n, d, seed):
    clip = _similarity_clip(t_len, n, d, seed)
    sims = cosine_similarity(clip)
    assert sims.shape == (t_len - 1, n, n)
    for t, got in enumerate(sims):
        want = pairwise_cosine_similarity(clip.data[t], clip.data[t + 1])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_similarity_matrix_validation():
    # each solver checks the similarity array it is given
    bad = [
        (np.zeros((2, 3)), "square"),
        (np.zeros((0, 0)), "square"),
        (np.zeros(3), "square"),
        (np.full((2, 2), np.nan), "non-finite"),
        (np.full((2, 2), np.inf), "non-finite"),
        (np.full((2, 2), 1.5), r"\[-1, 1\]"),
        (np.array([[0.0, -1.0 - 1e-12], [0.0, 0.0]]), r"\[-1, 1\]"),
    ]
    for values, fragment in bad:
        for solver in (optimal_match, brute_force_match):
            with pytest.raises(ValueError, match=fragment):
                solver(values)


# ---------------------------------------------------------------------------
# optimal_match / brute_force_match
# ---------------------------------------------------------------------------


def test_match_identity_matrix():
    perm, total = optimal_match(np.eye(4))
    assert np.array_equal(perm, np.arange(4))
    assert total == pytest.approx(4.0, abs=1e-12)


def test_match_swap_example():
    sim = np.array([[0.1, 0.9], [0.9, 0.1]])
    perm, total = optimal_match(sim)
    assert np.array_equal(perm, [1, 0])
    assert total == pytest.approx(1.8, abs=1e-12)


def test_match_constant_ties_break_to_identity():
    for c in (-0.25, 0.0, 0.5):
        for n in (1, 2, 3, 5, 8):
            perm, total = optimal_match(np.full((n, n), c))
            assert np.array_equal(perm, np.arange(n))
            assert total == pytest.approx(n * c, abs=1e-12)
            perm_b, _ = brute_force_match(np.full((n, n), c))
            assert np.array_equal(perm_b, np.arange(n))


def test_match_structured_tie_prefers_smaller_first_image():
    # both (0,1) and (1,0) are optimal; the lex rule keeps (0,1)
    sim = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.array_equal(optimal_match(sim)[0], [0, 1])
    # push the optimum onto the antidiagonal pair only
    sim = np.array([[0.5, 0.8], [0.8, 0.1]])
    assert np.array_equal(optimal_match(sim)[0], [1, 0])


def test_brute_force_single_query():
    perm, total = brute_force_match(np.array([[0.3]]))
    assert np.array_equal(perm, [0])
    assert total == pytest.approx(0.3)


def test_brute_force_budget():
    with pytest.raises(ValueError):
        brute_force_match(np.zeros((10, 10)))


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=150, deadline=None)
def test_dual_route_agreement_random(n, seed):
    rng = np.random.default_rng(seed)
    sim = rng.uniform(-1.0, 1.0, size=(n, n))
    p_fast, t_fast = optimal_match(sim)
    p_slow, t_slow = brute_force_match(sim)
    assert np.array_equal(p_fast, p_slow)
    assert abs(t_fast - t_slow) <= 1e-9


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=150, deadline=None)
def test_dual_route_agreement_tie_prone(n, seed):
    # coarse value grid forces frequent exact ties; both routes must pick
    # the same lexicographically smallest optimum
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, n))
    p_fast, t_fast = optimal_match(values)
    p_slow, t_slow = brute_force_match(values)
    assert np.array_equal(p_fast, p_slow)
    assert abs(t_fast - t_slow) <= 1e-9


@given(
    n=st.integers(min_value=1, max_value=256),
    seed=st.integers(min_value=0, max_value=2**31),
    ties=st.booleans(),
)
@example(n=256, seed=0, ties=False)
@example(n=256, seed=0, ties=True)
@settings(max_examples=20, deadline=None)
def test_totals_match_scipy_linear_sum_assignment(n, seed, ties):
    # an independent Jonker-Volgenant solver as the oracle past brute force's N <= 9;
    # rounding to one decimal makes many optima tie
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n))
    if ties:
        values = np.round(values, 1)
    _, total = optimal_match(values)
    rows, cols = linear_sum_assignment(values, maximize=True)
    assert abs(total - values[rows, cols].sum()) <= 1e-9


def _solver_case(kind, n, seed):
    """An (N, N) similarity matrix: random, row-scaled, rounded, surplus-equal or cosine."""
    rng = np.random.default_rng(seed)
    if kind == "cosine":  # frame 1 permutes frame 0's queries, plus noise
        a = rng.standard_normal((n, 16))
        b = a[rng.permutation(n)] + rng.uniform(0.0, 1.0) * rng.standard_normal((n, 16))
        return _pair_sim(a, b)
    sim = rng.uniform(-1.0, 1.0, (n, n))
    if kind == "scaled":  # rows of different magnitudes, so the order of rounding shows
        return sim * 10.0 ** rng.uniform(-3.0, 0.0, (n, 1))
    if kind != "random":
        sim = np.round(sim, int(rng.integers(2)))
    if kind == "surplus":  # the last n - k queries are alike: equal rows and columns
        k = int(rng.integers(n + 1))
        sim[k:, :] = rng.choice([0.0, 0.5])
        sim[:, k:] = rng.choice([0.0, 0.5])
    return sim


@given(
    kind=st.sampled_from(["random", "scaled", "rounded", "surplus", "cosine"]),
    n=st.integers(1, 14),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="cosine", n=100, seed=0)
@example(kind="rounded", n=130, seed=1)
@example(kind="surplus", n=90, seed=2)
@example(kind="random", n=60, seed=3)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_solver_equals_the_numpy_oracle(kind, n, seed):
    # same IEEE operations in the same order, so the same bits: the assignment
    # and both potentials, signs of zeros included
    cost = 1.0 - _solver_case(kind, n, seed)
    assignment, u, v = _solve_min_cost(cost.tolist())
    want_assignment, want_u, want_v = numpy_solve_min_cost(cost)
    assert assignment == want_assignment
    for got, want in ((np.array(u), want_u), (np.array(v), want_v)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _tight_start(sim):
    """The tight lists and the Hungarian assignment ``optimal_match`` starts its lex pass from."""
    cost = 1.0 - sim
    assignment, u, v = _solve_min_cost(cost.tolist())
    reduced = cost - np.array(u)[:, None] - np.array(v)
    return [np.flatnonzero(row <= _TIGHT_TOL).tolist() for row in reduced], assignment


@st.composite
def _tie_heavy_graphs(draw):
    """A tight graph and a perfect matching inside it, with many ties."""
    n = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["rounded", "surplus", "permutations"]))
    if kind == "permutations":  # a union of random perfect matchings, from the first
        rng = np.random.default_rng(seed)
        perms = [rng.permutation(n) for _ in range(draw(st.integers(1, 4)))]
        return [sorted({int(p[i]) for p in perms}) for i in range(n)], [int(j) for j in perms[0]]
    return _tight_start(_solver_case(kind, n, seed))


@given(_tie_heavy_graphs())
@settings(max_examples=200, deadline=None)
def test_lex_pass_equals_the_recursive_pass(graph):
    tight, start = graph
    want = recursive_lex_smallest_tight_matching(tight, list(start))
    assert _lex_smallest_tight_matching(tight, list(start)) == want
    assert sorted(want) == list(range(len(start)))


def test_lex_pass_walks_a_near_tie_cycle_1200_long():
    # the cyclic shift and the identity are both tight; reaching the identity
    # re-homes every row in one chain, deeper than Python's recursion limit
    n = 1200
    sim = np.zeros((n, n))
    rows = np.arange(n)
    sim[rows, (rows + 1) % n] = 1.0
    sim[rows, rows] = 1.0 - 1e-10
    mapping, total = optimal_match(sim)
    assert mapping.tolist() == rows.tolist()
    assert total == pytest.approx(n * (1.0 - 1e-10), abs=1e-6)


def test_match_total_is_achieved_sum():
    rng = np.random.default_rng(2)
    sim = rng.uniform(-1, 1, size=(6, 6))
    perm, total = optimal_match(sim)
    direct = sum(sim[i, perm[i]] for i in range(6))
    assert total == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# align_clip
# ---------------------------------------------------------------------------


def test_align_single_frame():
    clip = ClipQueryTensor(np.random.default_rng(0).standard_normal((1, 4, 8)))
    alignment = align_clip(clip)
    assert alignment.t_len == 1
    assert np.array_equal(alignment.per_frame, [[0, 1, 2, 3]])
    assert alignment.adjacent.shape == (0, 4)
    assert alignment.pair_totals == ()


def test_align_identical_frames_all_identity():
    frame = np.random.default_rng(1).standard_normal((5, 12))
    clip = ClipQueryTensor(np.stack([frame] * 4))
    alignment = align_clip(clip)
    assert np.array_equal(alignment.per_frame, np.broadcast_to(np.arange(5), (4, 5)))
    assert np.array_equal(alignment.adjacent, np.broadcast_to(np.arange(5), (3, 5)))


def test_align_recovers_known_permutations():
    # frame t scatters prototype i into slot pi_t(i); with pi_0 = identity
    # the per-frame maps must equal pi_t^-1
    protos = _random_orthonormal(6, 24, seed=3)
    rng = np.random.default_rng(4)
    pis = [list(range(6))] + [list(rng.permutation(6)) for _ in range(4)]
    frames = []
    for pi in pis:
        frame = np.empty_like(protos)
        frame[pi] = protos
        frames.append(frame)
    alignment = align_clip(ClipQueryTensor(np.stack(frames)))
    for t, pi in enumerate(pis):
        assert np.array_equal(alignment.per_frame[t], np.argsort(pi))
    # each adjacent total is the full similarity mass of a perfect match
    for total in alignment.pair_totals:
        assert total == pytest.approx(6.0, abs=1e-9)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_align_composition_invariant(seed):
    rng = np.random.default_rng(seed)
    clip = ClipQueryTensor(rng.standard_normal((5, 4, 6)))
    alignment = align_clip(clip)
    sims = cosine_similarity(clip)
    assert np.array_equal(alignment.per_frame[0], np.arange(4))
    for t in range(alignment.t_len - 1):
        assert np.array_equal(
            alignment.per_frame[t + 1, alignment.adjacent[t]], alignment.per_frame[t]
        )
        # the derived match is the one the solver returned for the pair
        mapping, _ = optimal_match(sims[t])
        assert np.array_equal(alignment.adjacent[t], mapping)


@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_permuting_a_frame_permutes_its_adjacent_matches(seed, t_len, n):
    # orthonormal prototypes in per-frame orders, lightly perturbed: each pair's best
    # assignment wins by a wide margin, so no tie can resolve differently
    rng = np.random.default_rng(seed)
    protos = _random_orthonormal(n, 16, seed)
    data = np.array([protos[rng.permutation(n)] for _ in range(t_len)])
    data += 0.05 * rng.standard_normal(data.shape)
    t, perm = int(rng.integers(t_len - 1)), rng.permutation(n)
    permuted = data.copy()
    permuted[t + 1] = data[t + 1][perm]  # frame t + 1's query perm[j] moves to slot j
    want, got = align_clip(ClipQueryTensor(data)), align_clip(ClipQueryTensor(permuted))
    assert np.array_equal(got.adjacent[t], np.argsort(perm)[want.adjacent[t]])
    if t + 2 < t_len:  # the pair that starts at the permuted frame reads its rows permuted
        assert np.array_equal(got.adjacent[t + 1], want.adjacent[t + 1][perm])
    rest = [u for u in range(t_len - 1) if u not in (t, t + 1)]
    assert np.array_equal(got.adjacent[rest], want.adjacent[rest])


def test_alignment_type_validation():
    ident = [0, 1, 2]
    swap = [1, 0, 2]
    with pytest.raises(ValueError, match="anchor"):
        ClipAlignment([swap, ident], (3.0,))
    with pytest.raises(ValueError, match="T-1"):
        ClipAlignment([ident, ident], (3.0, 3.0))  # count mismatch
    with pytest.raises(ValueError, match="T-1"):
        ClipAlignment([ident, ident], ())
    for total in (float("nan"), float("inf"), -float("inf")):  # no matching gives these totals
        with pytest.raises(ValueError, match="pair_totals"):
            ClipAlignment(np.array([[0, 1], [1, 0]]), (total,))
    ClipAlignment.identity(3, 4)  # well-formed
    one = ClipAlignment([ident], ())  # one frame, from plain lists
    assert one.adjacent.shape == (0, 3)


@pytest.mark.parametrize(
    "per_frame, fragment",
    [
        ([[0, 0], [0, 1]], "every row must permute 0..1"),
        ([[0, 1], [1, 2]], "every row must permute 0..1"),
        ([[0, 1], [0, -1]], "every row must permute 0..1"),
        ([[]], "non-empty (T, N)"),
        ([], "non-empty (T, N)"),
        ([[0, 1], [0.0, 1.0]], "2 rows of 2 integers"),
        ([[True, False], [False, True]], "2 rows of 2 integers"),
        ([[0, 1], [1]], "non-empty (T, N)"),
    ],
    ids=["repeated", "out_of_range", "negative", "empty_row", "no_rows", "float", "bool",
         "ragged"],
)
def test_alignment_rejects_non_permutations(per_frame, fragment):
    # the permutation checks that used to live on a per-mapping class
    with pytest.raises(ValueError) as exc:
        ClipAlignment(per_frame, (2.0,))
    assert fragment in str(exc.value)


def test_alignment_arrays_are_read_only_copies():
    per_frame = np.array([[0, 1, 2], [2, 0, 1]])
    alignment = ClipAlignment(per_frame, (1.0,))
    per_frame[1] = [1, 2, 0]
    assert np.array_equal(alignment.per_frame[1], [2, 0, 1])
    assert alignment.per_frame.dtype == np.intp and alignment.adjacent.dtype == np.intp
    with pytest.raises(ValueError):
        alignment.per_frame[1, 0] = 0
    with pytest.raises(ValueError):
        alignment.adjacent[0, 0] = 0
    mapping, _ = optimal_match(np.eye(3))
    assert mapping.dtype == np.intp and not mapping.flags.writeable
