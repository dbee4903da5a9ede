"""Synthetic scene generator with exactly known correspondence and labels.

A scene is a short clip in which K "objects" (tracks) move across a pixel
grid.  Track k owns a unit prototype vector p_k; the prototypes are mutually
orthonormal, so cosine similarity separates tracks perfectly at zero noise.
Each frame holds N >= K queries: every real track appears as one query (the
prototype plus optional Gaussian channel noise), and the N - K surplus
queries all carry one shared "no-object" prototype.  Which query index holds
which track is controlled by a per-frame cyclic rotation of the first K
indices, so consecutive frames generally disagree about which index means
which object -- the situation cross-frame matching is supposed to repair.
Surplus indices are never permuted; they sit at the top of the index range in
ascending order, which keeps the clip exactly recoverable even though their
query vectors are identical.

Pixels: track k paints a moving rh x rw rectangle (position wraps around the
grid, tracks painted in ascending k, later tracks on top).  A rectangle pixel
carries the owning track's prototype as its embedding and the track's class
as its label; everything else is background: zero embedding, class C-1.
Only a (T, H, W) index is painted: every frame's pixel map is one frame of
that index over one shared (K + 1, D) palette, row 0 zero and row 1 + k
track k's prototype.

Prototype layout.  Plain Gram-Schmidt over Gaussian draws would spread each
prototype's energy evenly over all D channels, which makes a small temporal
shift (one channel each way) numerically invisible downstream.  When D is
large enough the generator therefore concentrates a fixed share of each
prototype's energy in the two outermost channels -- the first channels to be
shifted -- laying the K tracks out at distinct angles on that 2-channel
plane; channels that a shift of up to fraction 1/4 can touch are otherwise
zero, and the remaining core energy lives in the middle band, built from
Gram-Schmidt-orthonormalised Gaussian draws and corrected (via a small
Cholesky factor) so the full Gram matrix is still the identity.  Swapping the
outer channels between two different tracks then moves a query's angle on the
signature plane by a macroscopic amount, while swapping them between two
queries of the same track changes nothing.

Determinism: every random draw comes from one Rng stream seeded with
``spec.seed``, consumed in this order:

1. prototype core draws: K (+1 when N > K) rows of Gaussian values, row by
   row (row length D - 2*max(1, D // 8) in signature mode, D otherwise);
2. rectangle anchors: for each real track, one row draw in [0, H) then one
   column draw in [0, W);
3. frame rotations, only when permute_per_frame is set and K >= 2: one draw
   in [0, K) for frame 0, then one draw in [0, K-1) per later frame (the
   nonzero rotation delta);
4. query noise: D Gaussians per (frame, query), frame-major, only when
   noise_sigma > 0.

The prototype arithmetic (Gram-Schmidt, Cholesky, signature assembly) runs in
plain Python floats with left-to-right accumulation, so it does not depend on
any BLAS reduction order.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    ClipQueryTensor,
    PixelEmbeddingMap,
    read_labelmap,
    read_tensor,
    _freeze,
    _view,
    write_labelmap,
    write_tensor,
)
from .matching import ClipAlignment, _permutation_rows
from .rng import MASK64, Rng

__all__ = [
    "InfeasibleSceneError",
    "SceneSpec",
    "SceneClip",
    "generate_scene",
    "recovery_rate",
    "class_head_for",
    "save_scene",
    "load_scene",
]

# movement directions cycled over tracks; multiplied by spec.motion
_DIRS = ((0, 1), (1, 0), (1, 1), (0, -1), (-1, 0), (-1, -1), (1, -1), (-1, 1))

_SIGMOID_1 = 1.0 / (1.0 + math.exp(-1.0))

# peak class logit of an on-prototype query; sharp enough that softmax leak
# between neighbouring signature angles stays ~1e-3 at K = 8
_HEAD_PEAK_LOGIT = 24.0


class InfeasibleSceneError(ValueError):
    """The scene description cannot be realised."""


def _load_json(path: str | Path) -> dict:
    """The JSON object in the file at ``path``; every failure is a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            loaded = json.load(f)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except IsADirectoryError:
        raise ValueError(f"expected a file, got a directory: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return loaded


def _check_keys(what: str, d: dict, allowed) -> None:
    """Reject keys of a parsed JSON object that are not in ``allowed``."""
    unknown = sorted(str(k) for k in d if k not in allowed)
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")


def _json_value(what: str, value, *kinds: type):
    """``value`` if its exact type is one of ``kinds``; ``True`` is not an int here."""
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{what} must be of type {names}, got {value!r}")
    return value


def _json_ints(what: str, values) -> list:
    """``values`` if it is a JSON list of integers; ``true``/``false`` are not integers here."""
    if type(values) is not list or any(type(x) is not int for x in values):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return values


def _json_floats(what: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as float64 if it is nested JSON lists of ``shape`` finite numbers."""

    def fits(v, dims):
        if not dims:
            return type(v) in (int, float)
        return type(v) is list and len(v) == dims[0] and all(fits(x, dims[1:]) for x in v)

    arr = np.array(value, dtype=np.float64) if fits(value, shape) else None
    if arr is None or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be a JSON list of shape {shape} of finite numbers")
    return arr


_INT_FIELDS = ("t_len", "n_tracks", "n_queries", "dim", "num_classes", "motion", "seed")


@dataclass(frozen=True)
class SceneSpec:
    """Declarative description of a synthetic scene."""

    t_len: int
    n_tracks: int
    n_queries: int
    dim: int
    num_classes: int
    grid: tuple[int, int]
    noise_sigma: float = 0.0
    permute_per_frame: bool = True
    motion: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", (int(self.grid[0]), int(self.grid[1])))
        object.__setattr__(self, "seed", int(self.seed) & MASK64)
        t, k, n, d, c = (
            self.t_len,
            self.n_tracks,
            self.n_queries,
            self.dim,
            self.num_classes,
        )
        if t < 1:
            raise InfeasibleSceneError("t_len must be >= 1")
        if k < 1:
            raise InfeasibleSceneError("n_tracks must be >= 1")
        if not k <= n <= d:
            raise InfeasibleSceneError(
                "prototype separability requires n_tracks <= n_queries <= dim, "
                f"got n_tracks={k}, n_queries={n}, dim={d}"
            )
        if not 1 <= c <= k + 1:
            raise InfeasibleSceneError(
                f"num_classes must lie in [1, n_tracks + 1], got {c}"
            )
        if c > 256:
            raise InfeasibleSceneError("label maps cap num_classes at 256")
        if self.grid[0] < 1 or self.grid[1] < 1:
            raise InfeasibleSceneError(f"bad grid {self.grid}")
        if not (self.noise_sigma >= 0.0 and math.isfinite(self.noise_sigma)):
            raise InfeasibleSceneError(f"bad noise_sigma {self.noise_sigma}")
        if self.motion < 0:
            raise InfeasibleSceneError("motion must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        """Parse a JSON object; unknown keys and inexact types are errors."""
        if not isinstance(d, dict):
            raise ValueError(f"scene spec must be a JSON object, got {d!r}")
        _check_keys("scene spec", d, [f.name for f in fields(cls)])
        d = {f.name: f.default for f in fields(cls) if f.default is not MISSING} | d
        try:
            sizes = {k: _json_value(k, d[k], int) for k in _INT_FIELDS}
            grid = _json_value("grid", d["grid"], list, tuple)
        except KeyError as exc:
            raise ValueError(f"scene spec needs a {exc} field") from None
        if len(grid) != 2:
            raise ValueError(f"grid must be a [rows, cols] pair, got {grid!r}")
        sigma = float(_json_value("noise_sigma", d["noise_sigma"], int, float))
        if not math.isfinite(sigma):  # JSON NaN/Infinity is broken input, not a scene
            raise ValueError(f"noise_sigma must be finite, got {sigma}")
        return cls(
            **sizes,
            grid=(_json_value("grid rows", grid[0], int), _json_value("grid cols", grid[1], int)),
            noise_sigma=sigma,
            permute_per_frame=_json_value("permute_per_frame", d["permute_per_frame"], bool),
        )


@dataclass(frozen=True)
class SceneClip:
    """A generated scene: data plus full ground truth.

    ``gt_tracks[t, i]`` is the true track of frame t's query i, a read-only
    (T, N) intp array; slots >= K hold surplus (no-object) queries.
    ``gt_labels[t, y, x]`` is the class of frame t's pixel (y, x), a
    read-only (T, H, W) uint8 array with values in [0, num_classes).
    """

    spec: SceneSpec
    queries: ClipQueryTensor
    pixels: tuple[PixelEmbeddingMap, ...]
    gt_labels: np.ndarray
    gt_tracks: np.ndarray
    prototypes: np.ndarray  # (K, D), orthonormal rows
    no_object: np.ndarray | None  # (D,) shared surplus prototype, or None
    track_classes: tuple[int, ...]
    signature_scale: float | None  # rho of the outer-channel layout, or None

    def __post_init__(self):
        protos = np.array(self.prototypes, dtype=np.float64, copy=True)
        protos.setflags(write=False)
        object.__setattr__(self, "prototypes", protos)
        if self.no_object is not None:
            no = np.array(self.no_object, dtype=np.float64, copy=True)
            no.setflags(write=False)
            object.__setattr__(self, "no_object", no)
        object.__setattr__(self, "pixels", tuple(self.pixels))
        tracks = np.array(self.gt_tracks, dtype=np.intp)
        tracks.setflags(write=False)
        object.__setattr__(self, "gt_tracks", tracks)
        object.__setattr__(self, "track_classes", tuple(int(c) for c in self.track_classes))


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _orthonormal_rows(rows: list[list[float]]) -> list[list[float]]:
    """Modified Gram-Schmidt, plain Python for a platform-fixed op order."""
    out: list[list[float]] = []
    for row in rows:
        v = list(row)
        for u in out:
            c = _dot(v, u)
            for i in range(len(v)):
                v[i] -= c * u[i]
        norm = math.sqrt(_dot(v, v))
        if norm < 1e-12:
            raise InfeasibleSceneError("degenerate Gaussian draw during orthonormalisation")
        out.append([x / norm for x in v])
    return out


def _cholesky_lower(g: list[list[float]]) -> list[list[float]]:
    n = len(g)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = g[i][j]
            for t in range(j):
                s -= low[i][t] * low[j][t]
            if i == j:
                if s <= 0.0:
                    raise InfeasibleSceneError("signature Gram correction lost rank")
                low[i][j] = math.sqrt(s)
            else:
                low[i][j] = s / low[j][j]
    return low


def _signature_angles(k: int) -> list[float]:
    return [2.0 * math.pi * i / k for i in range(k)]


def _signature_scale(k: int) -> float:
    # strictly inside the feasibility bound rho^2 <= 2/K so the Gram
    # correction stays positive definite
    return min(0.6, math.sqrt(2.0 / k * (1.0 - 1.0 / 64.0)))


def _build_prototypes(
    rng: Rng, n_tracks: int, want_no_object: bool, dim: int
) -> tuple[list[list[float]], list[float] | None, float | None]:
    """Draw and assemble prototypes; see the module docstring for layout."""
    k_total = n_tracks + (1 if want_no_object else 0)
    margin = max(1, dim // 8)
    core_width = dim - 2 * margin
    if core_width >= k_total and dim >= 3:
        rho = _signature_scale(n_tracks)
        raw = [rng.gauss_vector(core_width).tolist() for _ in range(k_total)]
        basis = _orthonormal_rows(raw)
        angles = _signature_angles(n_tracks)
        sig = [(rho * math.cos(a), rho * math.sin(a)) for a in angles]
        gram = [
            [
                (1.0 if i == j else 0.0) - (sig[i][0] * sig[j][0] + sig[i][1] * sig[j][1])
                for j in range(n_tracks)
            ]
            for i in range(n_tracks)
        ]
        low = _cholesky_lower(gram)
        protos: list[list[float]] = []
        for k in range(n_tracks):
            p = [0.0] * dim
            p[0] = sig[k][0]
            p[dim - 1] = sig[k][1]
            for j in range(k + 1):
                c = low[k][j]
                if c != 0.0:
                    row = basis[j]
                    for i in range(core_width):
                        p[margin + i] += c * row[i]
            protos.append(p)
        no_obj = None
        if want_no_object:
            no_obj = [0.0] * dim
            no_obj[margin : margin + core_width] = basis[n_tracks]
        return protos, no_obj, rho
    # low-dimensional fallback: plain orthonormalised Gaussians
    raw = [rng.gauss_vector(dim).tolist() for _ in range(k_total)]
    basis = _orthonormal_rows(raw)
    protos = basis[:n_tracks]
    no_obj = basis[n_tracks] if want_no_object else None
    return protos, no_obj, None


def _track_class(k: int, num_classes: int) -> int:
    return k % max(num_classes - 1, 1)


def generate_scene(spec: SceneSpec) -> SceneClip:
    """Materialise a scene from its spec; same spec, same bits."""
    t_len, k, n, d, c = (
        spec.t_len,
        spec.n_tracks,
        spec.n_queries,
        spec.dim,
        spec.num_classes,
    )
    h, w = spec.grid
    rng = Rng(spec.seed)
    protos_py, no_obj_py, rho = _build_prototypes(rng, k, n > k, d)
    anchors = [(rng.below(h), rng.below(w)) for _ in range(k)]
    # consecutive frames always rotate by a nonzero delta, so every
    # transition actually exercises the cross-frame disagreement the scene
    # exists to model; K = 1 has no nontrivial rotation and draws nothing
    rotations = [0] * t_len
    if spec.permute_per_frame and k >= 2:
        rotations[0] = rng.below(k)
        for t in range(1, t_len):
            rotations[t] = (rotations[t - 1] + 1 + rng.below(k - 1)) % k

    prototypes = np.array(protos_py, dtype=np.float64)
    no_object = None if no_obj_py is None else np.array(no_obj_py, dtype=np.float64)
    track_classes = tuple(_track_class(i, c) for i in range(k))

    # frame t rotates the first K slots by rotations[t]; surplus slots stay put
    slots = np.arange(n, dtype=np.intp)
    gt_tracks = np.where(slots < k, (slots + np.array(rotations)[:, None]) % k, slots)

    # row k of the table is the no-object prototype every surplus query takes
    table = prototypes if no_object is None else np.vstack([prototypes, no_object])
    frames = table[np.minimum(gt_tracks, k)]
    if spec.noise_sigma > 0.0:
        # one draw, in (frame, query, channel) order
        noise = rng.gauss_vector(t_len * n * d).reshape(t_len, n, d)
        with np.errstate(over="ignore"):  # an overflow is caught by the clip's finite scan
            frames = frames + spec.noise_sigma * noise

    # index[t, y, x]: palette row of a pixel, 0 for background, 1 + k for track k
    rh = max(1, h // 5)
    rw = max(1, w // 5)
    t = np.arange(t_len)[:, None]
    index = np.zeros((t_len, h, w), dtype=np.intp)
    for track in range(k):  # later tracks paint on top
        vy, vx = _DIRS[track % len(_DIRS)]
        r0, c0 = anchors[track]
        rows = (r0 + t * vy * spec.motion + np.arange(rh)) % h
        cols = (c0 + t * vx * spec.motion + np.arange(rw)) % w
        index[t[:, :, None], rows[:, :, None], cols[:, None, :]] = 1 + track
    index.setflags(write=False)
    palette = _freeze(np.vstack([np.zeros(d), prototypes]), 2, "pixel palette")
    labels = np.array([c - 1, *track_classes], dtype=np.uint8)[index]
    labels.setflags(write=False)

    return SceneClip(
        spec=spec,
        queries=ClipQueryTensor(frames),
        pixels=tuple(_view(PixelEmbeddingMap, palette=palette, index=idx) for idx in index),
        gt_labels=labels,
        gt_tracks=gt_tracks,
        prototypes=prototypes,
        no_object=no_object,
        track_classes=track_classes,
        signature_scale=rho,
    )


def recovery_rate(alignment: ClipAlignment, scene: SceneClip) -> float:
    """Fraction of (frame, query) slots whose aligned track matches ground truth.

    A slot's aligned track is found by sending its index through the
    alignment into frame 0's index space and reading frame 0's true track
    there.
    """
    gt = scene.gt_tracks
    if alignment.per_frame.shape != gt.shape:
        raise ValueError(
            f"alignment shape {alignment.per_frame.shape} does not match the scene's {gt.shape}"
        )
    return int(np.count_nonzero(gt[0][alignment.per_frame] == gt)) / gt.size


# ---------------------------------------------------------------------------
# classification head for the decode stage
# ---------------------------------------------------------------------------


def class_head_for(scene: SceneClip) -> np.ndarray:
    """Linear class head (D x C weights) tuned to the scene's prototypes.

    Design goals, at zero noise: a query sitting on track k's prototype
    gets softmax mass ~(1 - eta) on the track's class and ~eta on the
    background class; surplus (no-object) queries get a uniform distribution
    so their contribution to the per-pixel argmax cancels across classes.
    ``eta`` is chosen so that background pixels (where every mask score is
    exactly sigmoid(0) = 1/2) aggregate to the background class while
    rectangle pixels still aggregate to the owning track's class:

        K * eta * 0.5            > m * (1 - eta) * 0.5          (background)
        sigmoid(1) * (1 - eta)   > eta * (sigmoid(1) + 0.5 * (K - 1))   (rect)

    with m the largest number of tracks sharing one class.  Both margins are
    macroscopic for the separable configurations used in tests (distinct
    classes, K >= 2); if the window is empty the head still works, it just
    loses the exact-background guarantee.

    In signature mode the real-class columns read ONLY the two outer
    channels, pointing at the owning track's signature angle.  That makes a
    query's class a function of exactly the channels a small temporal shift
    replaces, which is what lets an unmatched shift flip labels.  The
    background column reads the prototype sum, whose outer channels cancel,
    so background logits ignore the shift entirely.

    Noisy scenes get a different trade-off.  The signature-only columns
    amplify the noise on the two outer channels by peak/rho, which drowns the
    class structure already at noise_sigma ~ 0.1, and any column that yields
    a uniform positive background logit across all K orthonormal prototypes
    is forced to have norm ~ gamma * sqrt(K), amplifying noise the same way.
    So for noise_sigma > 0 the head reads full prototype directions (noise
    gain peak * sigma instead of peak / rho * sigma) and drops the
    background column to zero.  Background pixels then lose to some
    rectangle class -- a constant penalty that cancels when comparing
    matched against unmatched runs -- while class decisions stay sharp, and
    the shift still perturbs them through the prototypes' outer-channel
    signature energy.
    """
    k = scene.spec.n_tracks
    c = scene.spec.num_classes
    d = scene.spec.dim
    weights = np.zeros((d, c), dtype=np.float64)
    if c == 1:
        return weights

    if scene.spec.noise_sigma > 0.0:
        for track, cls in enumerate(scene.track_classes):
            weights[:, cls] += _HEAD_PEAK_LOGIT * scene.prototypes[track]
        return weights

    counts: dict[int, int] = {}
    for cls in scene.track_classes:
        counts[cls] = counts.get(cls, 0) + 1
    m_star = max(counts.values())
    lower = m_star / (k + m_star)
    upper = _SIGMOID_1 / (2.0 * _SIGMOID_1 + 0.5 * (k - 1))
    eta = 0.5 * (lower + upper) if lower < upper else 0.5 * upper

    peak = _HEAD_PEAK_LOGIT
    gamma_bg = peak + math.log(eta / (1.0 - eta))

    rho = scene.signature_scale
    if rho is not None:
        angles = _signature_angles(k)
        for cls in range(c - 1):
            if cls not in counts:
                continue
            k_c = scene.track_classes.index(cls)
            weights[0, cls] = peak / rho * math.cos(angles[k_c])
            weights[d - 1, cls] = peak / rho * math.sin(angles[k_c])
    else:
        for track, cls in enumerate(scene.track_classes):
            weights[:, cls] += peak * scene.prototypes[track]

    proto_sum = scene.prototypes.sum(axis=0)
    gains = scene.prototypes @ proto_sum
    weights[:, c - 1] = (gamma_bg / float(gains.mean())) * proto_sum
    return weights


# ---------------------------------------------------------------------------
# scene directory layout (used by the command line tools)
# ---------------------------------------------------------------------------


def save_scene(scene: SceneClip, out_dir: str | Path) -> list[Path]:
    """Write a scene as queries.qtn, pixels.qtn, labels_<t>.pgm, tracks.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    qpath = out / "queries.qtn"
    write_tensor(scene.queries, qpath)
    written.append(qpath)

    # gather each frame's per-pixel rows straight into the tensor written;
    # finite because the palettes are
    h, w = scene.spec.grid
    flat = np.empty((len(scene.pixels), h * w, scene.spec.dim))
    for rows, p in zip(flat, scene.pixels):
        np.take(p.palette, p.index.reshape(h * w), axis=0, out=rows)
    flat.setflags(write=False)
    ppath = out / "pixels.qtn"
    write_tensor(_view(ClipQueryTensor, data=flat), ppath)
    written.append(ppath)

    for t, labels in enumerate(scene.gt_labels):
        lpath = out / f"labels_{t}.pgm"
        write_labelmap(labels, lpath)
        written.append(lpath)

    meta = {
        "spec": scene.spec.to_dict(),
        "per_frame_tracks": scene.gt_tracks.tolist(),
        "track_classes": list(scene.track_classes),
        "prototypes": [list(row) for row in scene.prototypes.tolist()],
        "no_object": None if scene.no_object is None else list(scene.no_object.tolist()),
        "signature_scale": scene.signature_scale,
    }
    tpath = out / "tracks.json"
    with open(tpath, "w") as f:
        json.dump(meta, f, sort_keys=True, indent=1)
        f.write("\n")
    written.append(tpath)
    return written


def load_scene(scene_dir: str | Path) -> SceneClip:
    """Reload a scene written by :func:`save_scene`."""
    src = Path(scene_dir)
    meta = _load_json(src / "tracks.json")
    try:
        keys = "spec per_frame_tracks track_classes prototypes no_object signature_scale"
        _check_keys("tracks.json", meta, keys.split())
        spec = SceneSpec.from_dict(meta["spec"])
        what = "tracks.json per_frame_tracks"
        rows = _json_value(what, meta["per_frame_tracks"], list)
        gt_tracks = _permutation_rows(
            what, [_json_ints(f"{what} row", row) for row in rows], spec.t_len, spec.n_queries
        )
        track_classes = _json_ints("tracks.json track_classes", meta["track_classes"])
        prototypes = _json_floats(
            "tracks.json prototypes", meta["prototypes"], (spec.n_tracks, spec.dim)
        )
        no_object = meta["no_object"]
        if (no_object is None) != (spec.n_queries == spec.n_tracks):
            raise ValueError(
                "tracks.json no_object must be null exactly when n_queries == n_tracks"
            )
        if no_object is not None:
            no_object = _json_floats("tracks.json no_object", no_object, (spec.dim,))
        signature_scale = meta["signature_scale"]
        if signature_scale is not None and not (
            type(signature_scale) in (int, float) and 0 < signature_scale < math.inf
        ):
            raise ValueError(
                "tracks.json signature_scale must be null or a finite number > 0, "
                f"got {signature_scale!r}"
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tracks.json: {exc}") from exc
    if len(track_classes) != spec.n_tracks or not all(
        0 <= c < spec.num_classes for c in track_classes
    ):
        raise ValueError(
            f"tracks.json track_classes must list {spec.n_tracks} classes "
            f"in [0, {spec.num_classes}), got {track_classes}"
        )

    queries = read_tensor(src / "queries.qtn")
    flat = read_tensor(src / "pixels.qtn")
    h, w = spec.grid
    if (flat.t_len, flat.n_queries, flat.dim) != (spec.t_len, h * w, spec.dim):
        raise ValueError(
            f"pixels.qtn shape ({flat.t_len}, {flat.n_queries}, {flat.dim}) does not "
            f"match a {spec.t_len}-frame {h}x{w} grid of dim {spec.dim}"
        )
    # each frame's (H*W, D) rows of the tensor read, one shared identity index
    index = np.arange(h * w, dtype=np.intp).reshape(h, w)
    index.setflags(write=False)
    pixels = tuple(_view(PixelEmbeddingMap, palette=rows, index=index) for rows in flat.data)
    labels = []
    for t in range(spec.t_len):
        labels.append(read_labelmap(src / f"labels_{t}.pgm", spec.num_classes))
        if labels[t].shape != (h, w):
            raise ValueError(f"labels_{t}.pgm is {labels[t].shape}, not the {h}x{w} grid")
    labels = np.stack(labels)
    labels.setflags(write=False)
    return SceneClip(
        spec=spec,
        queries=queries,
        pixels=pixels,
        gt_labels=labels,
        gt_tracks=gt_tracks,
        prototypes=prototypes,
        no_object=no_object,
        track_classes=track_classes,
        signature_scale=signature_scale,
    )
