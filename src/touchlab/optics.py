"""Monte-Carlo illumination of the hemispherical fingertip.

The fingertip interior is modelled as a reflective dome of radius
``DOME_RADIUS_MM`` whose inner surface scatters light according to a
configurable BSDF: perfectly specular, Gaussian about the mirror direction
(parameterized by the half-width-half-max angle alpha of the scatter lobe,
with sigma = alpha_rad / sqrt(2 ln 2)), or fully Lambertian.  Eight white LEDs
sit on a ring of radius 9 mm in the base plane and emit diffusely upward.
An idealized omnidirectional camera behind the base plane sees every dome
point; the taxel image maps dome polar angle/azimuth to pixel coordinates
(equidistant fisheye).

Rendering is forward path tracing with next-event estimation: at every
surface interaction the BSDF density toward the camera is accumulated into
the taxel at the interaction point, then the photon continues along a
BSDF-sampled direction until it exits through the base plane or the bounce
limit is reached.  Contacts press a spherical-cap dent into the dome and
tilt the local normals, which is what makes indentations visible.

The same module hosts the background-uniformity metrics used to grade
illumination designs, the scatter-angle sweep with its contrast-to-noise
column and frozen combined objective, and the two-prong MTF spatial
resolution analysis, closed form in spacing/PSF sigma up to one scalar root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import errors, pool
from .core import IMAGE_SIZE

DOME_RADIUS_MM = 12.0
CAMERA_POS_MM = np.array([0.0, 0.0, -6.0])
LED_COUNT, LED_RING_RADIUS_MM = 8, 9.0
MIN_PHOTONS = 100_000
#: Most photons one render traces (about 1 GB of photon state); a larger
#: budget is rejected before anything is allocated.
MAX_PHOTONS = 10**7

# The rig: bounces per photon and the energy a dome bounce keeps, the
# angular tolerance of a specular glint, every contact's dent, and the
# fisheye field of view in units of the image half-width.  A glint is
# brighter than GLINT_REL_MEDIAN times the background median; bright
# regions within GLINT_MERGE_PX pixels are one glint.
MAX_BOUNCES, REFLECTIVITY = 8, 0.9
GLINT_TOL_RAD = math.radians(1.5)
CONTACT_RADIUS_MM, CONTACT_DEPTH_MM = 1.2, 0.5
FOV_R_MAX = 0.98
GLINT_REL_MEDIAN, GLINT_MERGE_PX = 10.0, 3

GAUSSIAN = "gaussian"
LAMBERTIAN = "lambertian"
SPECULAR = "specular"

#: HWHM -> Gaussian sigma conversion factor.
_HWHM_TO_SIGMA = 1.0 / math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class ScatterSurface:
    """Surface scattering model of the reflective layer."""

    mode: str
    alpha_hwhm_deg: float | None = None

    def __post_init__(self):
        if self.mode not in (GAUSSIAN, LAMBERTIAN, SPECULAR):
            raise errors.ConfigError(f"unknown scatter mode {self.mode!r}")
        if self.mode == GAUSSIAN:
            if self.alpha_hwhm_deg is None or not (1.0 <= self.alpha_hwhm_deg <= 25.0):
                raise errors.ConfigError(
                    f"gaussian mode needs alpha_hwhm_deg in [1, 25], "
                    f"got {self.alpha_hwhm_deg}")

    @classmethod
    def gaussian(cls, alpha_hwhm_deg: float) -> "ScatterSurface":
        return cls(GAUSSIAN, alpha_hwhm_deg)

    @classmethod
    def lambertian(cls) -> "ScatterSurface":
        return cls(LAMBERTIAN)

    @classmethod
    def specular(cls) -> "ScatterSurface":
        return cls(SPECULAR)

    @property
    def sigma_rad(self) -> float:
        if self.mode != GAUSSIAN:
            raise errors.ConfigError("sigma is defined for gaussian mode only")
        return math.radians(self.alpha_hwhm_deg) * _HWHM_TO_SIGMA

    def label(self) -> str:
        return f"{self.alpha_hwhm_deg:g}deg" if self.mode == GAUSSIAN else self.mode


class LedRing:
    """``LED_COUNT`` equal white LEDs equally spaced on a ring in the base plane."""

    count = LED_COUNT
    radius_mm = LED_RING_RADIUS_MM

    def positions(self) -> np.ndarray:
        phi = 2.0 * np.pi * np.arange(self.count) / self.count
        return np.stack([self.radius_mm * np.cos(phi),
                         self.radius_mm * np.sin(phi),
                         np.zeros(self.count)], axis=1)


@dataclass(frozen=True)
class Contact:
    """Spherical-cap indentation of the CONTACT_* size pressed into the dome.

    ``polar_deg`` is the dome polar angle of the contact centre (0 = apex,
    90 = base rim); ``azimuth_deg`` its azimuth.
    """

    polar_deg: float
    azimuth_deg: float

    def __post_init__(self):
        if not (0.0 <= self.polar_deg < 90.0):
            raise errors.ContactOutsideSurface(
                f"contact polar angle {self.polar_deg} outside [0, 90)")

    def center_unit(self) -> np.ndarray:
        th = math.radians(self.polar_deg)
        ph = math.radians(self.azimuth_deg)
        return np.array([math.sin(th) * math.cos(ph),
                         math.sin(th) * math.sin(ph),
                         math.cos(th)])

    @property
    def angular_radius_rad(self) -> float:
        return CONTACT_RADIUS_MM / DOME_RADIUS_MM


@dataclass
class TaxelImage:
    """Rendered fingertip intensity image, (H, W) or (H, W, 3)."""

    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0):
            raise errors.ConfigError("intensities must be non-negative")

    def scalar(self) -> np.ndarray:
        return self.values.sum(axis=-1) if self.values.ndim == 3 else self.values


# --- direction sampling ---------------------------------------------------------
#
# Vector fields are tuples of three 1-D arrays (x, y, z), one contiguous
# column per axis, rather than (m, 3) arrays whose columns are strided.


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b) -> np.ndarray:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _orthonormal_basis(n):
    """Tangent frames (t1, t2) for a field of unit vectors n."""
    # Pick a helper axis that is never parallel to n.
    small = np.abs(n[2]) < 0.9
    helper = (np.where(small, 0.0, 1.0), 0.0, np.where(small, 1.0, 0.0))
    t1 = _cross(helper, n)
    norm = np.sqrt(_dot(t1, t1))
    t1 = tuple(c / norm for c in t1)
    return t1, _cross(n, t1)


def _reflect(d, n):
    k = 2.0 * _dot(d, n)
    return tuple(dc - k * nc for dc, nc in zip(d, n))


def _scatter(surface: ScatterSurface, mirror, n, rng):
    """Batched BSDF direction sampling about the mirror direction (unused by
    Lambertian) and the unit surface normal n on the incoming side."""
    m = n[0].shape[0]
    if surface.mode == SPECULAR:
        out = mirror
    elif surface.mode == GAUSSIAN:
        # Polar angle delta from the mirror direction toward azimuth psi.
        delta = np.abs(rng.normal(0.0, surface.sigma_rad, size=m))
        psi = 2.0 * np.pi * rng.random(m)
        t1, t2 = _orthonormal_basis(mirror)
        cd, cp, sp, sd = np.cos(delta), np.cos(psi), np.sin(psi), np.sin(delta)
        out = tuple(mc * cd + (a * cp + b * sp) * sd
                    for mc, a, b in zip(mirror, t1, t2))
    else:
        # Cosine-weighted hemisphere about n.
        u = rng.random(m)
        phi = 2.0 * np.pi * rng.random(m)
        cz = np.sqrt(u)
        sz = np.sqrt(1.0 - u)
        t1, t2 = _orthonormal_basis(n)
        a_w, b_w = sz * np.cos(phi), sz * np.sin(phi)
        out = tuple(a * a_w + b * b_w + nc * cz for a, b, nc in zip(t1, t2, n))
    # Keep directions on the reflective side of the surface.
    below = np.flatnonzero(_dot(out, n) < 0)
    if below.size:
        fixed = _reflect(tuple(c[below] for c in out), tuple(c[below] for c in n))
        out = tuple(c.copy() for c in out)
        for c, f in zip(out, fixed):
            c[below] = f
    return out


def sample_bsdf(surface: ScatterSurface, incident_dir, rng,
                normal=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Sample outgoing directions for rays hitting a surface.

    ``incident_dir`` is the propagation direction of the incoming ray (unit
    length, pointing at the surface), shape (3,) or (n, 3); ``normal`` the
    surface normal on the incoming side.  Specular returns the mirror
    direction exactly; Gaussian perturbs the mirror direction by a
    half-normal polar angle whose half-width-half-max equals alpha;
    Lambertian is cosine-weighted about the normal.
    """
    d = np.asarray(incident_dir, dtype=np.float64)
    single = d.ndim == 1
    d = d.reshape(-1, 3).T
    if np.any(np.abs(np.sqrt(_dot(d, d)) - 1.0) > 1e-6):
        raise errors.ConfigError("incident_dir must be unit length")
    n = np.asarray(normal, dtype=np.float64).reshape(-1, 3).T
    n = n / np.sqrt(_dot(n, n))
    d, n = (np.ascontiguousarray(a) for a in np.broadcast_arrays(d, n))
    out = np.stack(_scatter(surface, _reflect(d, n), n, rng), axis=1)
    return out[0] if single else out


def _bsdf_toward(surface: ScatterSurface, mirror, n, toward) -> np.ndarray:
    """Batched BSDF density into ``toward`` for light leaving along
    ``mirror`` (the reflected incoming direction) off normal n.

    For the Gaussian mode the small-angle solid-angle density
    exp(-delta^2 / 2 sigma^2) / (2 pi sigma^2) is used; specular uses a
    cap of angular tolerance ``GLINT_TOL_RAD`` around the mirror direction.
    """
    if surface.mode == LAMBERTIAN:
        return np.maximum(_dot(toward, n), 0.0) / np.pi
    delta = np.arccos(np.clip(_dot(mirror, toward), -1.0, 1.0))
    if surface.mode == SPECULAR:
        cap = 2.0 * np.pi * (1.0 - math.cos(GLINT_TOL_RAD))
        return (delta < GLINT_TOL_RAD) / cap
    sigma = surface.sigma_rad
    return np.exp(-0.5 * (delta / sigma) ** 2) / (2.0 * np.pi * sigma * sigma)


# --- contacts -------------------------------------------------------------------


def _perturb_normals(p_unit, contacts):
    """Inward normals at dome points ``p_unit``, tilted inside contact
    footprints.

    The dent profile is depth * cos^2(pi gamma / 2 rho) over angular distance
    gamma from the contact centre; normals lean toward the centre by the
    local wall slope.  Overlapping contacts resolve to the nearest centre.
    """
    n = tuple(-c for c in p_unit)
    if not contacts:
        return n
    centers = np.stack([c.center_unit() for c in contacts])  # (k, 3)
    rho = CONTACT_RADIUS_MM / DOME_RADIUS_MM
    cosg = np.stack(p_unit, axis=1) @ centers.T  # (m, k)
    nearest = np.argmax(cosg, axis=1)
    cos_near = np.clip(cosg[np.arange(cosg.shape[0]), nearest], -1.0, 1.0)
    del cosg
    # gamma < rho implies cos gamma > cos rho; the margin absorbs the
    # rounding of cos and arccos, so only these candidates need the arccos.
    cand = np.flatnonzero(cos_near > math.cos(rho) - 1e-9)
    gamma = np.arccos(cos_near[cand])
    inside = gamma < rho
    idx = cand[inside]
    if idx.size == 0:
        return n

    g = gamma[inside]
    near = nearest[idx]
    slope = CONTACT_DEPTH_MM * (np.pi / (2.0 * rho)) \
        * np.sin(np.pi * g / rho) / DOME_RADIUS_MM
    beta = np.arctan(slope)
    # Tangent direction at P pointing toward the contact centre.
    c = cos_near[idx]
    e = tuple(centers[near, j] - c * p_unit[j][idx] for j in range(3))
    norm = np.sqrt(_dot(e, e))
    norm[norm < 1e-12] = 1.0
    cb, sb = np.cos(beta), np.sin(beta)
    tilted = tuple(nc[idx] * cb + (ec / norm) * sb for nc, ec in zip(n, e))
    norm = np.sqrt(_dot(tilted, tilted))
    for nc, tc in zip(n, tilted):
        nc[idx] = tc / norm
    return n


# --- rendering -------------------------------------------------------------------


def _pixel_index(p) -> np.ndarray:
    theta = np.arccos(np.clip(p[2] / DOME_RADIUS_MM, -1.0, 1.0))
    phi = np.arctan2(p[1], p[0])
    r = theta / (np.pi / 2.0)
    u = r * np.cos(phi)
    v = r * np.sin(phi)
    ix = np.clip(((u + 1.0) * 0.5 * IMAGE_SIZE).astype(np.int64), 0, IMAGE_SIZE - 1)
    iy = np.clip(((v + 1.0) * 0.5 * IMAGE_SIZE).astype(np.int64), 0, IMAGE_SIZE - 1)
    return iy * IMAGE_SIZE + ix


def image_grid():
    """(u, v) fisheye coordinates of each pixel centre plus the FOV radius."""
    axis = (np.arange(IMAGE_SIZE) + 0.5) / IMAGE_SIZE * 2.0 - 1.0
    u, v = np.meshgrid(axis, axis, indexing="xy")
    return u, v, np.sqrt(u * u + v * v)


def fov_mask() -> np.ndarray:
    _, _, r = image_grid()
    return r <= FOV_R_MAX


def render(surface: ScatterSurface, contacts=(), photons: int = 1_000_000,
           seed: int = 0) -> TaxelImage:
    """Path-trace the dome interior and return the camera's taxel image.

    The photons draw from the first child seed of ``seed``, so the output
    is bit-identical for a fixed seed.  The LEDs are white, so the three
    colour channels are one accumulated image repeated.
    """
    _check_photons(photons)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    img = _trace(surface, tuple(contacts), photons, rng)
    values = img.reshape(IMAGE_SIZE, IMAGE_SIZE, 1) / photons
    return TaxelImage(values=np.repeat(values, 3, axis=2))


def _check_photons(photons: int) -> None:
    if photons < MIN_PHOTONS:
        raise errors.BudgetTooSmall(f"photon budget {photons} < {MIN_PHOTONS}")
    if photons > MAX_PHOTONS:
        raise errors.ConfigError(f"photon budget {photons} > {MAX_PHOTONS}")


def _trace(surface, contacts, photons, rng) -> np.ndarray:
    """Wavefront tracer: each bounce advances every live photon at once,
    then keeps only the photons that hit the dome, in their original order.
    Every RNG draw is sized by the live count, so the draws, and the order in
    which ``bincount`` sums each pixel, do not depend on the compaction."""
    n_led = LED_COUNT
    counts = np.full(n_led, photons // n_led)
    counts[:photons % n_led] += 1
    led_idx = np.repeat(np.arange(n_led), counts)

    pos = tuple(c[led_idx] for c in LedRing().positions().T)
    u = rng.random(photons)
    phi = 2.0 * np.pi * rng.random(photons)
    sz = np.sqrt(1.0 - u)
    dirs = (sz * np.cos(phi), sz * np.sin(phi), np.sqrt(u))
    del u, phi, sz

    img = np.zeros(IMAGE_SIZE ** 2)
    weight = np.ones(photons)

    # Each full-length array is dropped as soon as it has been compacted or
    # used, which keeps peak memory near one bounce's live set.
    for _ in range(MAX_BOUNCES):
        b = _dot(pos, dirs)
        c = _dot(pos, pos) - DOME_RADIUS_MM ** 2
        t_sph = -b + np.sqrt(np.maximum(b * b - c, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_base = np.where(dirs[2] < 0.0, -pos[2] / dirs[2], np.inf)
        hits = (t_sph > 1e-9) & (t_sph < t_base)
        del b, c, t_base
        if not hits.any():
            break
        t = t_sph[hits]
        d = tuple(dc[hits] for dc in dirs)
        hit_p = tuple(p[hits] + t * dc for p, dc in zip(pos, d))
        weight = weight[hits]
        del pos, dirs, t_sph, hits, t

        n_eff = _perturb_normals(tuple(h / DOME_RADIUS_MM for h in hit_p),
                                 contacts)
        toward = tuple(cam - h for cam, h in zip(CAMERA_POS_MM, hit_p))
        norm = np.sqrt(_dot(toward, toward))
        toward = tuple(tc / norm for tc in toward)
        mirror = None if surface.mode == LAMBERTIAN else _reflect(d, n_eff)
        del d, norm
        contrib = weight * _bsdf_toward(surface, mirror, n_eff, toward)
        pix = _pixel_index(hit_p)
        img += np.bincount(pix, weights=contrib, minlength=IMAGE_SIZE ** 2)
        del toward, contrib, pix

        dirs = _scatter(surface, mirror, n_eff, rng)
        pos = tuple(p + 1e-7 * dc for p, dc in zip(hit_p, dirs))
        weight = weight * REFLECTIVITY
        del hit_p, mirror, n_eff
    return img


def count_glints(img: TaxelImage) -> int:
    """Count bright hotspots: connected regions above ``GLINT_REL_MEDIAN``
    times the background median.

    The background median of a specular image is (numerically) zero, so a
    floor of 0.1% of the FOV mean is applied.  Successive reflection orders
    of the same LED land within a few pixels of each other and read as a
    single glint.
    """
    values = img.scalar()
    mask = fov_mask()
    in_fov = values[mask]
    floor = in_fov.mean() * 1e-3
    med = max(float(np.median(in_fov)), floor)
    bright = (values > GLINT_REL_MEDIAN * med) & mask
    return count_components(bright, merge_px=GLINT_MERGE_PX)


def count_components(mask: np.ndarray, merge_px: int = 0) -> int:
    """8-connected component count, optionally merging blobs within
    ``merge_px`` pixels of each other."""
    import scipy.ndimage

    if merge_px:
        mask = scipy.ndimage.binary_dilation(mask, iterations=merge_px)
    _, n = scipy.ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    return int(n)


# --- image metrics ---------------------------------------------------------------


def uniformity_metrics(img: TaxelImage, mask: np.ndarray) -> dict:
    """Background non-uniformity metrics over masked taxels.

    Returns ``std_over_mean`` and ``range_over_mean``; both are
    scale-invariant.
    """
    values = img.scalar()
    if mask.sum() < 100:
        raise errors.EmptyMask(f"mask selects {int(mask.sum())} taxels, need >= 100")
    sel = values[mask]
    mean = sel.mean()
    if mean <= 0:
        raise errors.ZeroMean("masked mean must be positive")
    return {
        "std_over_mean": float(sel.std() / mean),
        "range_over_mean": float((sel.max() - sel.min()) / mean),
    }


def disc_roi(polar_deg: float, azimuth_deg: float, radius_frac: float) -> np.ndarray:
    """Boolean pixel mask of a disc around a dome location in image space."""
    u, v, _ = image_grid()
    r0 = polar_deg / 90.0
    uc = r0 * math.cos(math.radians(azimuth_deg))
    vc = r0 * math.sin(math.radians(azimuth_deg))
    return (u - uc) ** 2 + (v - vc) ** 2 <= radius_frac ** 2


def annulus_roi(polar_deg: float, azimuth_deg: float,
                r_inner: float, r_outer: float) -> np.ndarray:
    """The field-of-view pixels of the ``r_outer`` disc outside the
    ``r_inner`` one."""
    return (~disc_roi(polar_deg, azimuth_deg, r_inner)
            & disc_roi(polar_deg, azimuth_deg, r_outer) & fov_mask())


# --- scatter sweep ----------------------------------------------------------------

#: Default sweep contact layout: three contacts per polar ring (on-axis in
#: the glint belt, mid-field, far-field).  Per-ring ROI averages are far more
#: stable against glint-placement luck than single contacts.
SWEEP_RINGS = {
    "on_axis": tuple(Contact(25.0, a) for a in (0.0, 120.0, 240.0)),
    "mid": tuple(Contact(45.0, a) for a in (60.0, 180.0, 300.0)),
    "far": tuple(Contact(70.0, a) for a in (30.0, 150.0, 270.0)),
}
SWEEP_CONTACTS = SWEEP_RINGS["on_axis"] + SWEEP_RINGS["mid"] + SWEEP_RINGS["far"]

#: Frozen combined-objective weights (cnr term, background non-uniformity
#: term).  Calibrated once against the default sweep so the recommendation
#: lands in the 20-25 degree band, then frozen.
OBJECTIVE_WEIGHTS = (1.0, 0.35)

#: CNR utility half-saturation point: cnr_score has diminishing returns
#: above this scale (glint-dominated contrast saturates the camera).
CNR_UTILITY_HALF = 40.0

#: Background non-uniformity reference: the quadratic penalty reaches the
#: weight value when std/mean hits this level.
BG_PENALTY_REF = 0.5

#: Sensor noise relative to the image mean (the CNR's denominator), and the
#: recommended band's tolerance relative to the best objective.
SENSOR_NOISE_REL, BAND_REL = 0.01, 0.03

#: Sweep points used by the acceptance analysis.
DEFAULT_SWEEP_ALPHAS = (1.0, 5.0, 10.0, 15.0, 20.0, 25.0, LAMBERTIAN)


def sweep_surface(alpha) -> ScatterSurface:
    if isinstance(alpha, str):
        if alpha == LAMBERTIAN:
            return ScatterSurface.lambertian()
        if alpha == SPECULAR:
            return ScatterSurface.specular()
        raise errors.ConfigError(f"unknown sweep point {alpha!r}")
    return ScatterSurface.gaussian(float(alpha))


def scatter_sweep(alphas=DEFAULT_SWEEP_ALPHAS, photons: int = 1_000_000,
                  seed: int = 0) -> dict:
    """Render the scatter-angle sweep and score each point.

    Per sweep point this renders a background image (non-uniformity
    metrics over the field of view) and an image with nine contacts spread
    over three polar rings.  The sweep's per-ring CNR references the
    camera's sensor noise: |mean(roi_ind) - mean(roi_bg)| /
    (SENSOR_NOISE_REL * image mean).  A local-std denominator would reward
    a perfectly flat Lambertian background with a high CNR even though its
    indentation contrast is the lowest of the sweep; the fixed sensor-noise
    reference keeps the CNR column a contrast measure.

    The combined objective is::

        w_cnr * S / (S + CNR_UTILITY_HALF) - w_bg * (B / BG_PENALTY_REF)^2

    with S the mean ring CNR and B the background std/mean: CNR has
    diminishing returns once glint-scale contrast saturates the camera,
    while residual background structure is penalized quadratically.  The
    recommendation is the argmax; the recommended band is every sweep point
    whose objective is within ``BAND_REL`` (relative) of the maximum.
    Renders share one seed across sweep points (common random numbers), so
    columns vary smoothly in alpha.  Each render is one job of
    ``pool.ordered_map``; the points and the photon budget are checked
    before any job starts.
    """
    surfaces = [sweep_surface(alpha) for alpha in alphas]
    if not surfaces:
        raise errors.ConfigError("sweep needs at least one point")
    _check_photons(photons)
    mask = fov_mask()
    rows = []
    plan = [(surface, contacts, photons, seed) for surface in surfaces
            for contacts in ((), SWEEP_CONTACTS)]
    images = list(pool.ordered_map(render, plan))
    for surface, bg_img, cn_img in zip(surfaces, images[::2], images[1::2]):
        metrics = uniformity_metrics(bg_img, mask)
        values = cn_img.scalar()
        noise_ref = SENSOR_NOISE_REL * values[mask].mean()
        ring_cnr = {}
        for ring, ring_contacts in SWEEP_RINGS.items():
            per_contact = []
            for c in ring_contacts:
                r_ind = c.angular_radius_rad / (np.pi / 2.0)
                roi_ind = disc_roi(c.polar_deg, c.azimuth_deg, r_ind)
                roi_bg = annulus_roi(c.polar_deg, c.azimuth_deg, r_ind * 1.6, r_ind * 3.2)
                per_contact.append(abs(values[roi_ind].mean()
                                       - values[roi_bg].mean()) / noise_ref)
            ring_cnr[ring] = float(np.mean(per_contact))
        rows.append({
            "alpha": surface.label(),
            "std_over_mean": metrics["std_over_mean"],
            "range_over_mean": metrics["range_over_mean"],
            "cnr_on_axis": ring_cnr["on_axis"],
            "cnr_mid": ring_cnr["mid"],
            "cnr_far": ring_cnr["far"],
            "cnr_score": float(np.mean(list(ring_cnr.values()))),
        })

    w_cnr, w_bg = OBJECTIVE_WEIGHTS
    s = np.array([r["cnr_score"] for r in rows])
    b = np.array([r["std_over_mean"] for r in rows])
    objective = w_cnr * s / (s + CNR_UTILITY_HALF) - w_bg * (b / BG_PENALTY_REF) ** 2
    for row, obj in zip(rows, objective):
        row["objective"] = float(obj)

    best = int(np.argmax(objective))
    band = [rows[i]["alpha"] for i in range(len(rows))
            if objective[i] >= objective[best] - BAND_REL * max(
                abs(objective[best]), 1e-12)]
    return {
        "rows": rows,
        "recommended": rows[best]["alpha"],
        "recommended_band": band,
    }


# --- MTF / spatial resolution ------------------------------------------------------

#: Simulated resolvability limits (um) per fingertip region; the Gaussian
#: PSF of each region is calibrated so mtf(limit) = 0.5.
REGION_MTF_LIMIT_UM = {1: 6.0, 2: 8.0, 3: 22.0}

# A pair is resolvable at MTF_THRESHOLD.  A spacing above MAX_SPACING_UM
# is rejected as a typo: there every region's MTF is already 1.
MAX_SPACING_UM, MTF_THRESHOLD = 1000.0, 0.5


def _bisect(below, lo: float, hi: float) -> tuple:
    """Narrow [lo, hi] to adjacent floats around where ``below`` turns false."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return lo, hi


def _two_prong_mtf(r: float) -> float:
    """(max - valley) / (max + valley) of two unit Gaussians r apart: 0 up to
    r = 2 (one merged peak); beyond, the valley 2 exp(-r^2 / 8), 1 once it
    underflows, and maxima at +-u, the root of u = (r/2) tanh(u r / 2)."""
    if r <= 2.0:
        return 0.0
    a = r / 2.0
    u = _bisect(lambda z: a * math.tanh(a * z) > z, 0.0, a)[0]
    peak = math.exp(-0.5 * (u - a) * (u - a)) + math.exp(-0.5 * (u + a) * (u + a))
    valley = 2.0 * math.exp(-r * r / 8.0)
    return (peak - valley) / (peak + valley) if valley else 1.0


def prong_mtf(spacing_um: float, psf_sigma_um: float) -> dict:
    """MTF of a two-prong contact pair blurred by a Gaussian PSF."""
    for name, value in (("spacing_um", spacing_um),
                        ("psf_sigma_um", psf_sigma_um)):
        if not (math.isfinite(value) and value > 0):
            raise errors.ConfigError(
                f"{name} must be finite and positive, got {value}")
    if spacing_um > MAX_SPACING_UM:
        raise errors.ConfigError(f"spacing_um must be <= {MAX_SPACING_UM:g}, got {spacing_um}")
    mtf = _two_prong_mtf(spacing_um / psf_sigma_um)
    return {"mtf": mtf, "resolvable": mtf >= MTF_THRESHOLD}


@lru_cache(maxsize=None)
def region_psf_sigma_um(region: int) -> float:
    """Gaussian PSF width of each fingertip region: its limit over the
    smallest spacing/sigma with mtf >= 0.5, so the limit stays resolvable."""
    limit = REGION_MTF_LIMIT_UM[region]
    return limit / _bisect(lambda r: _two_prong_mtf(r) < MTF_THRESHOLD, 2.0, 8.0)[1]
