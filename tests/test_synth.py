"""Synthetic scene generation: determinism, geometry, ground truth."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from queryshift.core import PixelEmbeddingMap
from queryshift.matching import ClipAlignment, align_clip
from queryshift.synth import (
    InfeasibleSceneError,
    SceneSpec,
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


def test_spec_dict_round_trip():
    spec = _spec(noise_sigma=0.25, motion=2, seed=99)
    assert SceneSpec.from_dict(spec.to_dict()) == spec


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
    assert scene.signature_scale is None
    gram = scene.prototypes @ scene.prototypes.T
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


def test_signature_channels_carry_energy():
    # outer channels hold the angular signature the shift will disturb
    scene = generate_scene(_spec(dim=64, n_tracks=4, n_queries=4))
    rho = scene.signature_scale
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
    rigged = dataclasses.replace(
        scene, gt_tracks=[ident] + [swap] * (t_len - 1)
    )
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
    for track, cls in enumerate(scene.track_classes):
        row = logits[track]
        assert int(np.argmax(row)) == cls


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
    assert back.track_classes == scene.track_classes
    assert np.allclose(back.prototypes, scene.prototypes, atol=0)
    assert np.allclose(back.no_object, scene.no_object, atol=0)
    assert back.signature_scale == scene.signature_scale


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

    # loaded maps: each palette is one frame's rows of the tensor read back,
    # and all share one identity index
    base = loaded.pixels[0].palette.base
    assert base is not None and not base.flags.writeable
    identity = np.arange(h * w).reshape(h, w)
    for pm, generated in zip(loaded.pixels, scene.pixels):
        assert pm.palette.base is base
        assert pm.palette.shape == (h * w, scene.spec.dim)
        assert pm.index is loaded.pixels[0].index
        assert np.array_equal(pm.index, identity)
        assert np.array_equal(_embeddings(pm), _embeddings(generated))


@pytest.mark.parametrize("loaded", [False, True], ids=["generated", "loaded"])
def test_gt_labels_are_one_read_only_class_array(tmp_path, loaded):
    scene = generate_scene(_spec(n_queries=5, num_classes=3, motion=2, seed=5))
    if loaded:
        save_scene(scene, tmp_path)
        scene = load_scene(tmp_path)
    generated = generate_scene(scene.spec)
    index = np.stack([pm.index for pm in generated.pixels])
    class_of_row = np.array([scene.spec.num_classes - 1, *scene.track_classes])
    gt = scene.gt_labels
    assert isinstance(gt, np.ndarray) and gt.dtype == np.uint8 and not gt.flags.writeable
    assert gt.shape == (scene.spec.t_len, *scene.spec.grid)
    assert np.array_equal(gt, class_of_row[index])


def test_generate_scene_gathers_no_per_pixel_embeddings():
    t, (h, w), d = 6, (64, 64), 128
    spec = _spec(t_len=t, n_tracks=8, n_queries=8, dim=d, num_classes=9, grid=(h, w))
    tracemalloc.start()
    try:
        generate_scene(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (T, H, W, D) float64 gather alone would take t * h * w * d * 8 bytes
    assert peak < t * h * w * d * 8 / 4


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
