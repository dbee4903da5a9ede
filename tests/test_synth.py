"""Synthetic scene generation: determinism, geometry, ground truth."""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import (
    _build_prototypes,
    _cholesky_lower,
    _orthonormal_rows,
    _same_json,
    reference_class_head_for,
    reference_generate_scene,
)
from queryshift import synth
from queryshift.core import ClipQueryTensor, PixelEmbeddingMap
from queryshift.matching import ClipAlignment, align_clip
from queryshift.rng import Rng
from queryshift.synth import (
    InfeasibleSceneError,
    SceneClip,
    SceneSpec,
    check_keys,
    class_head_for,
    generate_scene,
    load_scene,
    recovery_rate,
    save_scene,
)


def _spec(**kw):
    base = dict(
        t_len=4,
        n_tracks=4,
        n_queries=4,
        dim=16,
        num_classes=5,
        grid=(8, 8),
        noise_sigma=0.0,
        permute_per_frame=True,
        motion=1,
        seed=0,
    )
    base.update(kw)
    return SceneSpec(**base)


def _embeddings(pm):
    """A pixel map's (H, W, D) per-pixel embeddings."""
    return pm.palette[pm.index]


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_separability_chain():
    with pytest.raises(InfeasibleSceneError, match="separability"):
        _spec(n_tracks=5, n_queries=4)
    with pytest.raises(InfeasibleSceneError, match="separability"):
        _spec(n_queries=17, dim=16)
    with pytest.raises(InfeasibleSceneError):
        _spec(n_tracks=17, n_queries=17, dim=16)


def test_spec_class_bounds():
    _spec(num_classes=5)  # K + 1 exactly
    with pytest.raises(InfeasibleSceneError):
        _spec(num_classes=6)
    with pytest.raises(InfeasibleSceneError):
        _spec(num_classes=0)


def test_spec_misc_bounds():
    with pytest.raises(InfeasibleSceneError):
        _spec(t_len=0)
    with pytest.raises(InfeasibleSceneError):
        _spec(grid=(0, 8))
    with pytest.raises(InfeasibleSceneError):
        _spec(noise_sigma=-0.1)
    with pytest.raises(InfeasibleSceneError):
        _spec(noise_sigma=float("nan"))
    with pytest.raises(InfeasibleSceneError):
        _spec(motion=-1)


@pytest.mark.parametrize(
    "change, fragment",
    [
        ({"grid": (64.9, 8.2)}, "grid rows must be of type int"),
        ({"grid": (8, np.int64(8))}, "grid cols must be of type int"),
        ({"grid": (8, 8, 8)}, "grid must be a \\[rows, cols\\] pair"),
        ({"grid": 8}, "grid must be of type list or tuple"),
        ({"permute_per_frame": "no"}, "permute_per_frame must be of type bool"),
        ({"t_len": True}, "t_len must be of type int"),
        ({"seed": 1.0}, "seed must be of type int"),
        ({"noise_sigma": "0.1"}, "noise_sigma must be of type int or float"),
        ({"noise_sigma": False}, "noise_sigma must be of type int or float"),
    ],
    ids=["float_grid", "numpy_grid", "grid_triple", "int_grid", "string_permute", "bool_t_len",
         "float_seed", "string_sigma", "bool_sigma"],
)
def test_spec_constructor_rejects_inexact_types(change, fragment):
    # broken input, not an infeasible scene: a library caller gets what from_dict gives
    with pytest.raises(ValueError, match=fragment) as info:
        _spec(**change)
    assert type(info.value) is ValueError


def test_spec_stores_an_int_sigma_as_a_float():
    spec = _spec(noise_sigma=1)
    assert type(spec.noise_sigma) is float and spec == _spec(noise_sigma=1.0)


def test_spec_dict_round_trip():
    spec = _spec(noise_sigma=0.25, motion=2, seed=99)
    assert SceneSpec.from_dict(spec.to_dict()) == spec


def test_spec_derives_track_classes_and_signature_scale():
    assert _spec(n_tracks=4, num_classes=5).track_classes == (0, 1, 2, 3)
    assert _spec(n_tracks=4, num_classes=3).track_classes == (0, 1, 0, 1)
    assert _spec(n_tracks=4, num_classes=1).track_classes == (0, 0, 0, 0)
    assert _spec(n_tracks=4, n_queries=4, dim=64).signature_scale == 0.6
    rho = math.sqrt(2.0 / 8 * (1.0 - 1.0 / 64.0))
    assert _spec(n_tracks=8, n_queries=8, dim=64, num_classes=9).signature_scale == rho
    # dim 8 leaves a core band of 6 channels: room for 6 prototypes, not 6 plus no-object
    assert _spec(n_tracks=6, n_queries=6, dim=8, num_classes=7).signature_scale is not None
    assert _spec(n_tracks=6, n_queries=7, dim=8, num_classes=7).signature_scale is None
    assert _spec(n_tracks=2, n_queries=2, dim=2, num_classes=3).signature_scale is None


def test_check_keys_names_unknown_keys_then_the_first_missing_one():
    with pytest.raises(ValueError, match=r"^unknown thing key\(s\): x, y$"):
        check_keys("thing", {"y": 1, "x": 2}, ["a", "b"], ["a", "b"])
    with pytest.raises(ValueError, match="^thing needs a 'b' field$"):
        check_keys("thing", {"a": 1}, ["a", "b", "c"], ["b", "c"])
    check_keys("thing", {"b": 1, "c": 2}, ["a", "b", "c"], ["b", "c"])


def test_spec_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        SceneSpec.from_dict({"t_len": 3})
    with pytest.raises(ValueError):
        SceneSpec.from_dict({**_spec().to_dict(), "grid": 7})


# ---------------------------------------------------------------------------
# prototype geometry
# ---------------------------------------------------------------------------


def test_prototype_gram_is_identity():
    scene = generate_scene(_spec(n_tracks=4, n_queries=4, dim=16))
    gram = scene.prototypes @ scene.prototypes.T
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


def test_prototype_gram_with_no_object():
    scene = generate_scene(_spec(n_tracks=4, n_queries=5, dim=16))
    assert scene.no_object is not None
    stack = np.vstack([scene.prototypes, scene.no_object[None, :]])
    gram = stack @ stack.T
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-12


def test_prototype_gram_low_dim_fallback():
    # dim too small for the signature layout; plain orthonormal rows
    scene = generate_scene(_spec(n_tracks=2, n_queries=2, dim=2, num_classes=3))
    assert scene.spec.signature_scale is None
    gram = scene.prototypes @ scene.prototypes.T
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


def _same_bits(got, want) -> bool:
    want = np.array(want)
    return (
        got.shape == want.shape
        and np.array_equal(got, want)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(1, 24),
    surplus=st.integers(0, 3),
    extra_dim=st.integers(0, 40),  # small ones leave no room for the signature layout
    seed=st.integers(0, 2**64 - 1),
)
def test_prototypes_equal_the_python_build_bit_for_bit(k, surplus, extra_dim, seed):
    n = k + surplus
    spec = _spec(t_len=1, n_tracks=k, n_queries=n, dim=n + extra_dim, num_classes=1, seed=seed)
    event("fallback" if spec.signature_scale is None else "signature")
    protos, no_obj = _build_prototypes(Rng(seed), spec)
    scene = generate_scene(spec)
    assert _same_bits(scene.prototypes, protos)
    assert (scene.no_object is None) == (no_obj is None)
    assert no_obj is None or _same_bits(scene.no_object, no_obj)


def test_degenerate_inputs_raise_as_the_python_build_does():
    for orthonormal_rows in (_orthonormal_rows, synth._orthonormal_rows):
        with pytest.raises(InfeasibleSceneError, match="degenerate Gaussian draw"):
            orthonormal_rows(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))  # parallel rows
    for cholesky_lower in (_cholesky_lower, synth._cholesky_lower):
        with pytest.raises(InfeasibleSceneError, match="Gram correction lost rank"):
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_signature_channels_carry_energy():
    # outer channels hold the angular signature the shift will disturb
    scene = generate_scene(_spec(dim=64, n_tracks=4, n_queries=4))
    rho = scene.spec.signature_scale
    assert rho is not None and rho > 0
    outer = scene.prototypes[:, [0, -1]]
    norms = np.linalg.norm(outer, axis=1)
    assert np.allclose(norms, rho, atol=1e-12)


# ---------------------------------------------------------------------------
# determinism and ground truth
# ---------------------------------------------------------------------------


def test_same_seed_bit_identical():
    spec = _spec(noise_sigma=0.3, seed=1234)
    a = generate_scene(spec)
    b = generate_scene(spec)
    assert np.array_equal(
        a.queries.data.view(np.uint64), b.queries.data.view(np.uint64)
    )
    assert np.array_equal(a.prototypes.view(np.uint64), b.prototypes.view(np.uint64))
    for pa, pb in zip(a.pixels, b.pixels):
        assert np.array_equal(_embeddings(pa).view(np.uint64), _embeddings(pb).view(np.uint64))
    assert np.array_equal(a.gt_labels, b.gt_labels)
    assert np.array_equal(a.gt_tracks, b.gt_tracks)


def test_different_seeds_differ():
    a = generate_scene(_spec(seed=1))
    b = generate_scene(_spec(seed=2))
    assert not np.array_equal(a.prototypes, b.prototypes)


def test_permute_off_frames_identical():
    scene = generate_scene(_spec(permute_per_frame=False))
    frames = scene.queries.data
    for t in range(1, scene.spec.t_len):
        assert np.array_equal(frames[t], frames[0])
    assert np.array_equal(scene.gt_tracks, np.broadcast_to(np.arange(4), (4, 4)))


def test_permute_on_adjacent_tracks_always_differ():
    for seed in range(10):
        scene = generate_scene(_spec(seed=seed, t_len=6))
        for t in range(scene.spec.t_len - 1):
            assert not np.array_equal(scene.gt_tracks[t], scene.gt_tracks[t + 1])


def test_noise_zero_queries_equal_prototypes():
    scene = generate_scene(_spec(n_queries=5, seed=3))
    frames = scene.queries.data
    for t in range(scene.spec.t_len):
        for i in range(scene.spec.n_queries):
            track = scene.gt_tracks[t, i]
            base = (
                scene.prototypes[track]
                if track < scene.spec.n_tracks
                else scene.no_object
            )
            assert np.array_equal(frames[t, i], base)


def test_surplus_queries_keep_their_slots():
    scene = generate_scene(_spec(n_tracks=3, n_queries=5, num_classes=4, seed=6))
    assert np.array_equal(scene.gt_tracks[:, 3:], np.broadcast_to([3, 4], (4, 2)))


@pytest.mark.parametrize("loaded", [False, True], ids=["generated", "loaded"])
def test_scene_clip_keeps_its_read_only_arrays(tmp_path, loaded):
    scene = generate_scene(_spec(n_queries=5))
    if loaded:
        save_scene(scene, tmp_path)
        scene = load_scene(tmp_path)
    assert len(dataclasses.fields(SceneClip)) == 7 and isinstance(scene.pixels, tuple)
    for arr in (scene.prototypes, scene.no_object, scene.gt_tracks, scene.gt_labels):
        assert not arr.flags.writeable
    # a frozen array is kept as given, not copied
    tracks = np.zeros_like(scene.gt_tracks)
    tracks.setflags(write=False)
    assert dataclasses.replace(scene, gt_tracks=tracks).gt_tracks is tracks


def test_gt_tracks_are_read_only_rotations():
    scene = generate_scene(_spec(n_tracks=3, n_queries=5, num_classes=4, seed=6))
    tracks = scene.gt_tracks
    assert tracks.shape == (4, 5) and tracks.dtype == np.intp
    with pytest.raises(ValueError):
        tracks[0, 0] = 0
    # the first K slots of every frame hold a cyclic rotation of 0..K-1
    for row in tracks[:, :3]:
        assert np.array_equal(row, np.roll([0, 1, 2], -int(row[0])))


def test_labels_use_background_class():
    scene = generate_scene(_spec(num_classes=5))
    for labels in scene.gt_labels:
        vals = set(np.unique(labels).tolist())
        assert 4 in vals  # background = C - 1
        assert vals <= set(range(5))


def test_pixels_carry_prototypes_on_rectangles():
    # every pixel vector is either the zero background or a unit prototype
    scene = generate_scene(_spec(seed=8))
    for t, pm in enumerate(scene.pixels):
        norms = np.linalg.norm(_embeddings(pm), axis=2)
        on = norms > 0.5
        assert np.allclose(norms[on], 1.0, atol=1e-9)
        assert np.all(norms[~on] == 0.0)
        # rectangles exist and so does untouched background
        assert on.any() and (~on).any()
        bg = scene.spec.num_classes - 1
        assert np.all((scene.gt_labels[t] == bg) == ~on)


# ---------------------------------------------------------------------------
# recovery_rate
# ---------------------------------------------------------------------------


def test_recovery_computed_alignment_is_exact():
    scene = generate_scene(_spec(seed=5))
    assert recovery_rate(align_clip(scene.queries), scene) == 1.0


def test_recovery_exact_across_shapes():
    for k, n in ((2, 2), (3, 5), (8, 8)):
        scene = generate_scene(
            _spec(n_tracks=k, n_queries=n, num_classes=k + 1, dim=16, seed=k * 10 + n)
        )
        assert recovery_rate(align_clip(scene.queries), scene) == 1.0


def test_recovery_forced_identity_counts_swapped_slots():
    t_len, n = 3, 4
    scene = generate_scene(
        _spec(t_len=t_len, n_queries=n, permute_per_frame=False, seed=7)
    )
    ident = [0, 1, 2, 3]
    swap = [1, 0, 2, 3]
    # the swap holds from the second frame onward: T-1 frames, 2 bad slots each
    gt_tracks = np.array([ident] + [swap] * (t_len - 1), dtype=np.intp)
    gt_tracks.setflags(write=False)
    rigged = dataclasses.replace(scene, gt_tracks=gt_tracks)
    got = recovery_rate(ClipAlignment.identity(t_len, n), rigged)
    assert got == (t_len * n - 2 * (t_len - 1)) / (t_len * n)


def test_recovery_equals_slot_by_slot_count():
    # the vectorised rate is exactly hits / slots counted one slot at a time
    rates = []
    for seed in range(8):
        scene = generate_scene(_spec(n_queries=5, noise_sigma=1.5, seed=seed))
        alignment = align_clip(scene.queries)
        gt = scene.gt_tracks
        hits = sum(
            int(gt[0, alignment.per_frame[t, i]] == gt[t, i])
            for t in range(gt.shape[0])
            for i in range(gt.shape[1])
        )
        rates.append(recovery_rate(alignment, scene))
        assert rates[-1] == hits / gt.size
    assert min(rates) < 1.0  # the noise does break some matches


def test_recovery_single_frame_is_one():
    scene = generate_scene(_spec(t_len=1))
    assert recovery_rate(align_clip(scene.queries), scene) == 1.0


def test_recovery_shape_mismatch():
    scene = generate_scene(_spec())
    with pytest.raises(ValueError):
        recovery_rate(ClipAlignment.identity(2, 4), scene)
    with pytest.raises(ValueError):
        recovery_rate(ClipAlignment.identity(4, 3), scene)


def test_recovery_mean_non_increasing_in_noise():
    sigmas = [0.0, 0.1, 0.3, 1.0, 3.0]
    means = []
    for sigma in sigmas:
        total = 0.0
        for seed in range(50):
            scene = generate_scene(_spec(noise_sigma=sigma, seed=seed))
            total += recovery_rate(align_clip(scene.queries), scene)
        means.append(total / 50)
    assert means[0] == 1.0
    for lo, hi in zip(means[1:], means):
        assert lo <= hi + 1e-12


# ---------------------------------------------------------------------------
# class head
# ---------------------------------------------------------------------------


def test_class_head_shape_and_single_class():
    scene = generate_scene(_spec())
    head = class_head_for(scene)
    assert head.shape == (scene.spec.dim, scene.spec.num_classes)
    flat = generate_scene(_spec(num_classes=1))
    assert np.array_equal(class_head_for(flat), np.zeros((16, 1)))


def test_class_head_separates_prototypes_at_zero_noise():
    scene = generate_scene(_spec(dim=64, seed=2))
    head = class_head_for(scene)
    logits = scene.prototypes @ head
    for track, cls in enumerate(scene.spec.track_classes):
        row = logits[track]
        assert int(np.argmax(row)) == cls


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(1, 12),
    surplus=st.integers(0, 3),
    extra_dim=st.integers(0, 40),  # small ones leave no room for the signature layout
    classes=st.integers(0, 12),
    sigma=st.sampled_from([0.0, 0.1]),
    seed=st.integers(0, 2**64 - 1),
)
def test_class_head_equals_the_reference_bit_for_bit(k, surplus, extra_dim, classes, sigma, seed):
    n = k + surplus
    spec = _spec(
        t_len=1, n_tracks=k, n_queries=n, dim=n + extra_dim, num_classes=1 + classes % (k + 1),
        grid=(4, 4), noise_sigma=sigma, seed=seed,
    )
    event("fallback" if spec.signature_scale is None else "signature")
    scene = generate_scene(spec)
    assert _same_bits(class_head_for(scene), reference_class_head_for(scene))


@pytest.mark.parametrize(
    "kw",
    [
        {},
        {"dim": 64, "n_queries": 6},
        {"dim": 4, "num_classes": 3},
        {"n_tracks": 1, "n_queries": 1, "num_classes": 2},
    ],
    ids=["signature", "signature_surplus", "low_dim", "one_track"],
)
@pytest.mark.parametrize("sigma", [1e-9, 0.2, 3.0])
def test_class_head_background_column_is_zero_under_noise(kw, sigma):
    # by design: background pixels then lose to some rectangle class (see class_head_for)
    head = class_head_for(generate_scene(_spec(noise_sigma=sigma, **kw)))
    assert head.shape[1] >= 2 and np.array_equal(head[:, -1], np.zeros(head.shape[0]))
    assert np.any(head[:, :-1])


def _field_arrays(value) -> list[np.ndarray]:
    """The arrays one SceneClip field holds, in order: a pixel map gives palette then index."""
    if isinstance(value, ClipQueryTensor):
        return [value.data]
    if isinstance(value, tuple):
        return [a for p in value for a in (p.palette, p.index)]
    return [] if value is None else [value]


def _assert_same_scene(got: SceneClip, want: SceneClip) -> None:
    """Every field equal under ==, sign bit, dtype and write flag."""
    for f in dataclasses.fields(SceneClip):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if f.name == "spec":
            assert g == w
            continue
        assert (g is None) == (w is None), f.name
        for a, b in zip(_field_arrays(g), _field_arrays(w), strict=True):
            assert a.dtype == b.dtype and a.flags.writeable == b.flags.writeable, f.name
            assert _same_bits(a, b), f.name


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(1, 8),
    surplus=st.integers(0, 3),
    extra_dim=st.integers(0, 24),  # small ones leave no room for the signature layout
    classes=st.integers(0, 8),
    sigma=st.sampled_from([0.0, 0.1, 0.3]),
    permute=st.booleans(),
    motion=st.integers(0, 3),
    t_len=st.integers(1, 6),
    grid=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    seed=st.integers(0, 2**64 - 1),
)
def test_scene_equals_the_reference_bit_for_bit(
    k, surplus, extra_dim, classes, sigma, permute, motion, t_len, grid, seed
):
    n = k + surplus
    spec = SceneSpec(
        t_len=t_len, n_tracks=k, n_queries=n, dim=n + extra_dim,
        num_classes=1 + classes % (k + 1), grid=grid, noise_sigma=sigma,
        permute_per_frame=permute, motion=motion, seed=seed,
    )
    event("fallback" if spec.signature_scale is None else "signature")
    scene = generate_scene(spec)
    _assert_same_scene(scene, reference_generate_scene(spec))
    if sigma == 0.0:
        with tempfile.TemporaryDirectory() as tmp:
            save_scene(scene, tmp)
            loaded = load_scene(tmp)
        _assert_same_scene(loaded, scene)
        assert all(p.palette is loaded.pixels[0].palette for p in loaded.pixels)


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------


def test_scene_round_trip(tmp_path):
    scene = generate_scene(_spec(n_queries=5, noise_sigma=0.2, motion=2, seed=11))
    save_scene(scene, tmp_path)
    back = load_scene(tmp_path)
    assert back.spec == scene.spec
    assert np.array_equal(
        back.queries.data.view(np.uint64),
        scene.queries.data.view(np.uint64),
    )
    for pa, pb in zip(back.pixels, scene.pixels):
        assert np.array_equal(_embeddings(pa).view(np.uint64), _embeddings(pb).view(np.uint64))
    assert np.array_equal(back.gt_labels, scene.gt_labels)
    assert np.array_equal(back.gt_tracks, scene.gt_tracks)
    assert back.gt_tracks.dtype == np.intp and not back.gt_tracks.flags.writeable
    assert np.allclose(back.prototypes, scene.prototypes, atol=0)
    assert np.allclose(back.no_object, scene.no_object, atol=0)


def test_pixel_maps_are_read_only_views_of_one_buffer(tmp_path):
    scene = generate_scene(_spec())
    save_scene(scene, tmp_path)
    loaded = load_scene(tmp_path)
    h, w = scene.spec.grid
    for s in (scene, loaded):
        for pm in s.pixels:
            assert isinstance(pm, PixelEmbeddingMap)
            assert not pm.palette.flags.writeable
            assert not pm.index.flags.writeable
            assert pm.index.dtype == np.intp and pm.index.shape == (h, w)

    # generated maps share one palette, background then one row per track,
    # and their indices are frames of one (T, H, W) array
    palette = scene.pixels[0].palette
    assert np.array_equal(palette, np.vstack([np.zeros(scene.spec.dim), scene.prototypes]))
    index = scene.pixels[0].index.base
    assert index.shape == (scene.spec.t_len, h, w) and not index.flags.writeable
    for pm in scene.pixels:
        assert pm.palette is palette
        assert pm.index.base is index

    # loaded maps recover the generated palette as one shared object, and
    # each frame's index
    assert np.array_equal(loaded.pixels[0].palette, palette)
    for pm, generated in zip(loaded.pixels, scene.pixels):
        assert pm.palette is loaded.pixels[0].palette
        assert np.array_equal(pm.index, generated.index)
        assert np.array_equal(_embeddings(pm), _embeddings(generated))


@pytest.mark.parametrize("loaded", [False, True], ids=["generated", "loaded"])
def test_gt_labels_are_one_read_only_class_array(tmp_path, loaded):
    scene = generate_scene(_spec(n_queries=5, num_classes=3, motion=2, seed=5))
    if loaded:
        save_scene(scene, tmp_path)
        scene = load_scene(tmp_path)
    generated = generate_scene(scene.spec)
    index = np.stack([pm.index for pm in generated.pixels])
    class_of_row = np.array([scene.spec.num_classes - 1, *scene.spec.track_classes])
    gt = scene.gt_labels
    assert isinstance(gt, np.ndarray) and gt.dtype == np.uint8 and not gt.flags.writeable
    assert gt.shape == (scene.spec.t_len, *scene.spec.grid)
    assert np.array_equal(gt, class_of_row[index])


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, per tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_scene_gathers_no_per_pixel_embeddings():
    t, (h, w), d = 6, (64, 64), 128
    spec = _spec(t_len=t, n_tracks=8, n_queries=8, dim=d, num_classes=9, grid=(h, w))
    _, peak = _traced_peak(generate_scene, spec)
    # a (T, H, W, D) float64 gather alone would take t * h * w * d * 8 bytes
    assert peak < t * h * w * d * 8 / 4


def _io_scene():
    """The scene-io benchmark scene: 6 frames of 64x64 pixels, 64 channels."""
    return _spec(t_len=6, n_tracks=8, n_queries=8, dim=64, num_classes=9, grid=(64, 64), motion=2)


def test_save_scene_gathers_one_frame_of_rows_at_a_time(tmp_path):
    spec = _io_scene()
    scene = generate_scene(spec)
    _, peak = _traced_peak(save_scene, scene, tmp_path)
    # one reused (H*W, D) buffer, where a (T, H*W, D) gather would take T frames
    assert peak < 1.5 * spec.grid[0] * spec.grid[1] * spec.dim * 8


def test_load_scene_checks_one_frame_of_rows_at_a_time(tmp_path):
    spec = _io_scene()
    save_scene(generate_scene(spec), tmp_path)
    scene, peak = _traced_peak(load_scene, tmp_path)
    assert all(pm.palette is scene.pixels[0].palette for pm in scene.pixels)  # recovered
    # one frame read and one gathered to check it, where reading all of
    # pixels.qtn would hold T frames
    assert peak < 3 * spec.grid[0] * spec.grid[1] * spec.dim * 8


def test_load_scene_copies_only_a_frame_that_falls_back(tmp_path):
    spec = _io_scene()
    save_scene(generate_scene(spec), tmp_path)
    frame = spec.grid[0] * spec.grid[1] * spec.dim * 8
    data = bytearray((tmp_path / "pixels.qtn").read_bytes())
    data[20 + frame + 8 * 5 : 20 + frame + 8 * 6] = struct.pack("<d", 0.5)  # off the palette
    (tmp_path / "pixels.qtn").write_bytes(bytes(data))
    scene, peak = _traced_peak(load_scene, tmp_path)
    palettes = [pm.palette.shape[0] for pm in scene.pixels]
    assert palettes == [spec.n_tracks + 1, spec.grid[0] * spec.grid[1]] + [spec.n_tracks + 1] * 4
    # the two frame buffers, plus the fallback frame's own copy
    assert peak < 4 * frame


def test_scene_file_inventory(tmp_path):
    scene = generate_scene(_spec(t_len=3))
    paths = save_scene(scene, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == [
        "labels_0.pgm",
        "labels_1.pgm",
        "labels_2.pgm",
        "pixels.qtn",
        "queries.qtn",
        "tracks.json",
    ]


@pytest.mark.parametrize("bad", ["grid", "dim"])
def test_save_scene_rejects_a_mismatched_pixel_map_before_writing(tmp_path, bad):
    scene = generate_scene(_spec())
    save_scene(scene, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    last = scene.pixels[-1]
    if bad == "grid":
        wrong, shape = PixelEmbeddingMap(last.palette, last.index[:, :-1]), "8x7 grid of dim 16"
    else:
        wrong, shape = PixelEmbeddingMap(last.palette[:, :-1], last.index), "8x8 grid of dim 15"
    broken = dataclasses.replace(scene, pixels=[*scene.pixels[:-1], wrong])
    with pytest.raises(ValueError, match=f"^pixel map 3 is a {shape}, not the spec's 8x8 grid"):
        save_scene(broken, tmp_path)
    # the earlier scene's files are all still there, unchanged
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# any value load_json can give: bools, ints of any size, NaN, infinities, -0.0, nesting
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner),
    max_leaves=10,
)
# values shaped like tracks.json's derived keys: rows of ints, rows of floats with both zeros,
# null and one float
_FLOATS = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, 2.0])
_DERIVED_VALUES = st.one_of(
    st.none(),
    _FLOATS,
    st.lists(st.integers(0, 3), max_size=4),
    st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=3),
    st.lists(_FLOATS, max_size=4),
    st.lists(st.lists(_FLOATS, max_size=4), max_size=3),
)


def _near(value):
    """``value``, a row shorter, or each leaf kept or retyped: 1 as 1.0 or true, 0.0 as -0.0."""
    if type(value) is list:
        return st.tuples(*map(_near, value)).map(list) | st.just(value[:-1])
    twins = [value]
    if type(value) in (int, float) and math.isfinite(value) and value == int(value):
        twins += [int(value), float(value), -float(value), bool(value)]
    return st.sampled_from(twins)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data(), b=_DERIVED_VALUES)
def test_same_json_text_is_the_exact_type_oracle(data, b):
    a = data.draw(st.one_of(_near(b), _JSON_VALUES, _DERIVED_VALUES), label="a")
    same = json.dumps(a) == json.dumps(b)
    event(f"same: {same}")
    assert same == _same_json(a, b)


def _with_labels(labels):
    return lambda scene: dataclasses.replace(scene, gt_labels=labels(scene.gt_labels))


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda scene: dataclasses.replace(
                scene, queries=ClipQueryTensor(scene.queries.data[:, [0, 1, 2, 3, 0]])
            ),
            "queries shape (4, 5, 16) does not match the spec's (4, 4, 16)",
        ),
        (
            lambda scene: dataclasses.replace(scene, pixels=scene.pixels[:1]),
            "pixels shape (1,) does not match the spec's (4,)",
        ),
        (
            _with_labels(lambda labels: np.where(labels == 0, np.uint8(5), labels)),
            "gt_labels must hold integer classes in [0, 5)",
        ),
        (
            _with_labels(lambda labels: labels.astype(np.int64) - 1),
            "gt_labels must hold integer classes in [0, 5)",
        ),
        (
            _with_labels(lambda labels: labels.astype(np.float64)),
            "gt_labels must hold integer classes in [0, 5)",
        ),
        (
            _with_labels(lambda labels: labels[:, :7]),
            "gt_labels shape (4, 7, 8) does not match the spec's (4, 8, 8)",
        ),
        (
            _with_labels(lambda labels: labels[:1]),
            "gt_labels shape (1, 8, 8) does not match the spec's (4, 8, 8)",
        ),
        (
            lambda scene: dataclasses.replace(scene, prototypes=scene.prototypes * 2),
            "prototypes must be what the spec gives",
        ),
        (
            lambda scene: dataclasses.replace(
                scene, prototypes=np.where(scene.prototypes == 0.0, -0.0, scene.prototypes)
            ),
            "prototypes must be what the spec gives",
        ),
        (
            lambda scene: dataclasses.replace(scene, no_object=scene.prototypes[0]),
            "no_object must be what the spec gives",
        ),
        (
            lambda scene: dataclasses.replace(scene, gt_tracks=np.roll(scene.gt_tracks, 1, axis=1)),
            "gt_tracks must be what the spec gives",
        ),
        (
            lambda scene: dataclasses.replace(scene, gt_tracks=scene.gt_tracks.astype(np.float64)),
            "gt_tracks must be what the spec gives",
        ),
    ],
    ids=["queries_extra_slot", "pixels_one_map", "labels_class_5_of_5", "labels_negative",
         "labels_float", "labels_short_grid", "labels_one_frame", "prototypes_doubled",
         "prototypes_negative_zero", "no_object_where_the_spec_has_none", "gt_tracks_rolled",
         "gt_tracks_float"],
)
def test_save_scene_refuses_what_load_scene_would_refuse_before_writing(tmp_path, edit, message):
    scene = generate_scene(_spec())
    save_scene(scene, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError) as exc:
        save_scene(edit(scene), tmp_path)
    assert str(exc.value) == message
    # the earlier scene's files are all still there, unchanged
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_load_rejects_mismatched_pixels(tmp_path):
    scene = generate_scene(_spec())
    save_scene(scene, tmp_path)
    # break the pixel tensor by replacing it with a wrong-sized one
    from queryshift.core import ClipQueryTensor, write_tensor

    write_tensor(
        ClipQueryTensor(np.zeros((4, 3, 16))), tmp_path / "pixels.qtn"
    )
    with pytest.raises(ValueError):
        load_scene(tmp_path)
