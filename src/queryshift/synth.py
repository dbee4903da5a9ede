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

1. prototype core draws: K (+1 when N > K) rows of Gaussian values in one
   call, row-major (row length D - 2*max(1, D // 8) in signature mode, D
   otherwise), the same stream however the call is split;
2. rectangle anchors: for each real track, one row draw in [0, H) then one
   column draw in [0, W);
3. frame rotations, only when permute_per_frame is set and K >= 2: one draw
   in [0, K) for frame 0, then one draw in [0, K-1) per later frame (the
   nonzero rotation delta);
4. query noise: D Gaussians per (frame, query), frame-major, only when
   noise_sigma > 0.

Steps 1-3 give the spec's noiseless scene, ``_spec_scene``: ``generate_scene``
adds step 4 to it, ``load_scene`` checks the files against it and swaps them in.

The prototype arithmetic (Gram-Schmidt, Cholesky, signature assembly) runs in
sequential accumulates and elementwise ufuncs, no BLAS reduction, with each
sum taken left to right, so its op order is the same on every platform.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import (
    ClipQueryTensor,
    PixelEmbeddingMap,
    json_value,
    read_labelmap,
    read_tensor,
    write_frames,
    write_labelmap,
    write_tensor,
)
from .matching import ClipAlignment
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; a key given twice is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_json(path: str | Path) -> dict:
    """The JSON object in the file at ``path``; every failure is a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            loaded = json.load(f, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except IsADirectoryError:
        raise ValueError(f"expected a file, got a directory: {path}") from None
    except (ValueError, RecursionError) as exc:  # decode errors and repeated keys alike
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return loaded


def check_keys(what: str, d: dict, allowed, required=()) -> None:
    """Reject a parsed JSON object's keys not in ``allowed``, then a missing ``required`` one."""
    unknown = sorted(str(k) for k in d if k not in allowed)
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    for key in required:
        if key not in d:
            raise ValueError(f"{what} needs a {key!r} field")


def _same_json(a, b) -> bool:
    """Whether two parsed JSON values are equal with exact types: 1 is not 1.0, true or -0.0."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b and (type(a) is not float or math.copysign(1.0, a) == math.copysign(1.0, b))


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
        """Exact types first, as JSON gives them: ``True`` is not an int, 64.9 not a row count."""
        for name in _INT_FIELDS:
            json_value(name, getattr(self, name), int)
        grid = json_value("grid", self.grid, list, tuple)
        if len(grid) != 2:
            raise ValueError(f"grid must be a [rows, cols] pair, got {grid!r}")
        rows, cols = json_value("grid rows", grid[0], int), json_value("grid cols", grid[1], int)
        object.__setattr__(self, "grid", (rows, cols))
        sigma = float(json_value("noise_sigma", self.noise_sigma, int, float))
        object.__setattr__(self, "noise_sigma", sigma)
        json_value("permute_per_frame", self.permute_per_frame, bool)
        object.__setattr__(self, "seed", self.seed & MASK64)
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

    @property
    def track_classes(self) -> tuple[int, ...]:
        """Track k's class, k mod (num_classes - 1): the last class is background."""
        return tuple(k % max(self.num_classes - 1, 1) for k in range(self.n_tracks))

    @property
    def signature_scale(self) -> float | None:
        """rho of the outer-channel signature layout, or None when dim is too small for it."""
        core_width = self.dim - 2 * max(1, self.dim // 8)
        if core_width < self.n_tracks + (self.n_queries > self.n_tracks) or self.dim < 3:
            return None
        # strictly inside the feasibility bound rho^2 <= 2/K so the Gram
        # correction stays positive definite
        return min(0.6, math.sqrt(2.0 / self.n_tracks * (1.0 - 1.0 / 64.0)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        """Parse a JSON object; unknown keys are errors, and the constructor checks exact types."""
        if not isinstance(d, dict):
            raise ValueError(f"scene spec must be a JSON object, got {d!r}")
        required = [f.name for f in fields(cls) if f.default is MISSING]
        check_keys("scene spec", d, [f.name for f in fields(cls)], required)
        sigma = d.get("noise_sigma")
        if type(sigma) is float and not math.isfinite(sigma):  # JSON NaN/Infinity: broken input
            raise ValueError(f"noise_sigma must be finite, got {sigma}")
        return cls(**d)


@dataclass(frozen=True)
class SceneClip:
    """A generated scene: data plus full ground truth.

    ``gt_tracks[t, i]`` is the true track of frame t's query i, a read-only
    (T, N) intp array; slots >= K hold surplus (no-object) queries.
    ``gt_labels[t, y, x]`` is the class of frame t's pixel (y, x), a
    read-only (T, H, W) uint8 array with values in [0, num_classes).
    Callers hand it read-only arrays, which it keeps as given: nothing is copied.
    """

    spec: SceneSpec
    queries: ClipQueryTensor
    pixels: tuple[PixelEmbeddingMap, ...]
    gt_labels: np.ndarray
    gt_tracks: np.ndarray
    prototypes: np.ndarray  # (K, D), orthonormal rows
    no_object: np.ndarray | None  # (D,) shared surplus prototype, or None


def _orthonormal_rows(v: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on the rows of ``v``, in place, one column of projections a step.

    Row i still takes u_0, u_1, ... in order, in sequential accumulates and
    elementwise ufuncs, no BLAS reduction: each dot adds left to right and
    each update is a multiply, then a separate subtract.
    """
    for j, u in enumerate(v):
        norm = math.sqrt(np.add.accumulate(u * u)[-1])
        if norm < 1e-12:
            raise InfeasibleSceneError("degenerate Gaussian draw during orthonormalisation")
        u /= norm
        # + 0.0: a sum started at +0.0, as a scalar loop starts it, is never -0.0
        c = np.add.accumulate(v[j + 1 :] * u, axis=1)[:, -1] + 0.0
        v[j + 1 :] -= c[:, None] * u
    return v


def _cholesky_lower(g: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``g``, column by column; entry (i, j) subtracts its t in order."""
    low = np.zeros_like(g)
    for j in range(len(g)):
        terms = np.column_stack([g[j:, j], low[j:, :j] * low[j, :j]])
        s = np.subtract.accumulate(terms, axis=1)[:, -1]
        if s[0] <= 0.0:
            raise InfeasibleSceneError("signature Gram correction lost rank")
        low[j, j] = math.sqrt(s[0])
        low[j + 1 :, j] = s[1:] / low[j, j]
    return low


def _signature_angles(k: int) -> list[float]:
    return [2.0 * math.pi * i / k for i in range(k)]


def _build_prototypes(rng: Rng, spec: SceneSpec) -> np.ndarray:
    """The K prototypes, then the no-object row when N > K; see the module docstring for layout."""
    k, dim, rho = spec.n_tracks, spec.dim, spec.signature_scale
    k_total = k + (spec.n_queries > k)
    margin = 0 if rho is None else max(1, dim // 8)
    width = dim - 2 * margin
    basis = _orthonormal_rows(rng.gauss_vector(k_total * width).reshape(k_total, width))
    table = np.zeros((k_total, dim))
    table[:, margin : dim - margin] = basis
    if rho is not None:
        sig = rho * np.array([(math.cos(a), math.sin(a)) for a in _signature_angles(k)])
        gram = np.eye(k) - (sig[:, None, 0] * sig[:, 0] + sig[:, None, 1] * sig[:, 1])
        low = _cholesky_lower(gram)
        core = np.zeros((k, width))
        for j in range(k):
            core[j:] += low[j:, j, None] * basis[j]
        table[:k, margin : dim - margin] = core
        table[:k, 0], table[:k, -1] = sig[:, 0], sig[:, 1]
    return table


def _spec_scene(spec: SceneSpec) -> tuple[SceneClip, Rng]:
    """Steps 1-3 of the module docstring's draw order: the spec's scene without query noise.

    Every array of the scene is read-only; the Rng is positioned for step
    4's query noise.
    """
    t_len, k, n, d = spec.t_len, spec.n_tracks, spec.n_queries, spec.dim
    h, w = spec.grid
    rng = Rng(spec.seed)
    table = _build_prototypes(rng, spec)
    table.setflags(write=False)  # first, so its row views are read-only too
    anchors = [(rng.below(h), rng.below(w)) for _ in range(k)]
    # consecutive frames always rotate by a nonzero delta, so every
    # transition actually exercises the cross-frame disagreement the scene
    # exists to model; K = 1 has no nontrivial rotation and draws nothing
    rotations = [0] * t_len
    if spec.permute_per_frame and k >= 2:
        rotations[0] = rng.below(k)
        for t in range(1, t_len):
            rotations[t] = (rotations[t - 1] + 1 + rng.below(k - 1)) % k

    # frame t rotates the first K slots by rotations[t]; surplus slots stay put
    slots = np.arange(n, dtype=np.intp)
    gt_tracks = np.where(slots < k, (slots + np.array(rotations)[:, None]) % k, slots)
    # row k of the table is the no-object prototype every surplus query takes
    queries = table[np.minimum(gt_tracks, k)]

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
    palette = np.vstack([np.zeros(d), table[:k]])
    labels = np.array([spec.num_classes - 1, *spec.track_classes], dtype=np.uint8)[index]
    # frozen, so the scene keeps these objects and every frame's map shares them
    for arr in (gt_tracks, queries, palette, index, labels):
        arr.setflags(write=False)
    scene = SceneClip(
        spec=spec,
        queries=ClipQueryTensor(queries),
        pixels=tuple(PixelEmbeddingMap(palette, idx) for idx in index),
        gt_labels=labels,
        gt_tracks=gt_tracks,
        prototypes=table[:k],
        no_object=table[k] if n > k else None,
    )
    return scene, rng


def generate_scene(spec: SceneSpec) -> SceneClip:
    """Materialise a scene from its spec; same spec, same bits."""
    scene, rng = _spec_scene(spec)
    if spec.noise_sigma == 0.0:
        return scene
    frames = scene.queries.data
    # one draw, in (frame, query, channel) order
    noise = rng.gauss_vector(frames.size).reshape(frames.shape)
    with np.errstate(over="ignore"):  # an overflow is caught by the clip's finite scan
        frames = frames + spec.noise_sigma * noise
    return replace(scene, queries=ClipQueryTensor(frames))


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


@np.errstate(over="ignore", invalid="ignore")  # semantic_inference reports non-finite logits
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
    spec = scene.spec
    k, c, d, rho = spec.n_tracks, spec.num_classes, spec.dim, spec.signature_scale
    weights = np.zeros((d, c), dtype=np.float64)
    if c == 1:
        return weights

    peak = _HEAD_PEAK_LOGIT
    noisy = spec.noise_sigma > 0.0
    if noisy or rho is None:
        for track, cls in enumerate(spec.track_classes):
            weights[:, cls] += peak * scene.prototypes[track]
    else:
        angles = _signature_angles(k)
        for cls in range(c - 1):  # track cls is the first of its class, as c - 1 <= k
            weights[0, cls] = peak / rho * math.cos(angles[cls])
            weights[d - 1, cls] = peak / rho * math.sin(angles[cls])
    if noisy:
        return weights

    m_star = -(-k // (c - 1))  # the most tracks that share one class
    lower = m_star / (k + m_star)
    upper = _SIGMOID_1 / (2.0 * _SIGMOID_1 + 0.5 * (k - 1))
    eta = 0.5 * (lower + upper) if lower < upper else 0.5 * upper
    gamma_bg = peak + math.log(eta / (1.0 - eta))
    proto_sum = scene.prototypes.sum(axis=0)
    gains = scene.prototypes @ proto_sum
    weights[:, c - 1] = (gamma_bg / float(gains.mean())) * proto_sum
    return weights


# ---------------------------------------------------------------------------
# scene directory layout (used by the command line tools)
# ---------------------------------------------------------------------------


def _derived_keys(scene: SceneClip) -> dict:
    """tracks.json's keys other than "spec", as the JSON values save_scene writes."""
    return {
        "per_frame_tracks": scene.gt_tracks.tolist(),
        "track_classes": list(scene.spec.track_classes),
        "prototypes": scene.prototypes.tolist(),
        "no_object": None if scene.no_object is None else scene.no_object.tolist(),
        "signature_scale": scene.spec.signature_scale,
    }


def save_scene(scene: SceneClip, out_dir: str | Path) -> list[Path]:
    """Write a scene as queries.qtn, pixels.qtn, labels_<t>.pgm, tracks.json."""
    h, w = scene.spec.grid
    for t, p in enumerate(scene.pixels):  # before any file is written or replaced
        if p.index.shape != (h, w) or p.dim != scene.spec.dim:
            raise ValueError(
                f"pixel map {t} is a {p.height}x{p.width} grid of dim {p.dim}, "
                f"not the spec's {h}x{w} grid of dim {scene.spec.dim}"
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    qpath = out / "queries.qtn"
    write_tensor(scene.queries, qpath)
    written.append(qpath)

    # gather each frame's per-pixel rows into one reused buffer as it is
    # written; finite and in range because every pixel map is checked when
    # made.  mode="raise" would buffer each gather (~4x slower)
    rows = np.empty((h * w, scene.spec.dim))
    gathered = (
        np.take(p.palette, p.index.reshape(h * w), axis=0, out=rows, mode="clip")
        for p in scene.pixels
    )
    ppath = out / "pixels.qtn"
    write_frames(ppath, (len(scene.pixels), h * w, scene.spec.dim), gathered)
    written.append(ppath)

    for t, labels in enumerate(scene.gt_labels):
        lpath = out / f"labels_{t}.pgm"
        write_labelmap(labels, lpath)
        written.append(lpath)

    meta = {"spec": scene.spec.to_dict()} | _derived_keys(scene)
    tpath = out / "tracks.json"
    with open(tpath, "w") as f:
        json.dump(meta, f, sort_keys=True, indent=1)
        f.write("\n")
    written.append(tpath)
    return written


def load_scene(scene_dir: str | Path) -> SceneClip:
    """Reload a scene written by :func:`save_scene`.

    tracks.json's keys other than "spec" must be, with exact JSON types,
    what the spec's scene gives (steps 1-3 of the module docstring), which is
    returned with the files' data swapped in.  A pixels.qtn frame whose rows
    are exactly the spec's frame keeps the spec's pixel map, as a generated
    scene does; any other frame keeps its (H*W, D) rows as an identity
    palette.  queries.qtn and labels_<t>.pgm are data.
    """
    src = Path(scene_dir)
    meta = load_json(src / "tracks.json")
    try:
        spec = SceneSpec.from_dict(meta["spec"])
    except KeyError as exc:
        raise ValueError(f"malformed tracks.json: {exc}") from None

    queries = read_tensor(src / "queries.qtn")
    if queries.data.shape != (spec.t_len, spec.n_queries, spec.dim):
        raise ValueError(
            f"queries.qtn shape {queries.data.shape} does not match {spec.t_len} frames "
            f"of {spec.n_queries} queries of dim {spec.dim}"
        )
    h, w = spec.grid
    pixels = []
    frames = read_tensor(src / "pixels.qtn", by_frame=True)
    with contextlib.closing(frames):
        if frames.shape != (spec.t_len, h * w, spec.dim):
            raise ValueError(
                f"pixels.qtn shape {frames.shape} does not match a "
                f"{spec.t_len}-frame {h}x{w} grid of dim {spec.dim}"
            )
        # the spec agrees with both headers before anything of its size is built
        truth, _ = _spec_scene(spec)
        want = _derived_keys(truth)
        check_keys("tracks.json", meta, ["spec", *want])
        differ = [key for key in want if key not in meta or not _same_json(meta[key], want[key])]
        if differ:
            raise ValueError(f"tracks.json {', '.join(differ)} must be what the spec gives")
        identity = np.arange(h * w, dtype=np.intp)
        identity.setflags(write=False)
        gathered = np.empty((h * w, spec.dim))
        # one reused buffer; frames goes first in zip, so it runs on to its trailer check
        for rows, p in zip(frames, truth.pixels):
            rows = rows.reshape(h * w, spec.dim)
            np.take(p.palette, p.index.reshape(h * w), axis=0, out=gathered, mode="clip")
            if np.array_equal(gathered, rows):
                pixels.append(p)
            else:  # not the spec's frame: each pixel its own palette row
                own = ClipQueryTensor(rows[None]).data[0]  # a copy; fails as a clip read would
                pixels.append(PixelEmbeddingMap(own, identity.reshape(h, w)))
    labels = []
    for t in range(spec.t_len):
        labels.append(read_labelmap(src / f"labels_{t}.pgm", spec.num_classes))
        if labels[t].shape != (h, w):
            raise ValueError(f"labels_{t}.pgm is {labels[t].shape}, not the {h}x{w} grid")
    labels = np.stack(labels)
    labels.setflags(write=False)
    return replace(truth, queries=queries, pixels=tuple(pixels), gt_labels=labels)
