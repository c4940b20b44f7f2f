"""One-body shape functionals and small-particle scattering amplitudes.

For a single small scatterer centered at the origin the far field is

    u - u0 ~ A(beta, alpha) * exp(ikr) / r

and ``A`` is closed-form in a handful of shape functionals:

    soft       A = -C / (4 pi),              C = electric capacitance
    impedance  A = -h b a^(2-kappa) / (4 pi), b = |S| / a^2  (= -zeta |S| / (4 pi))
    hard       A = -(k^2 |D| / 4 pi) (1 + beta_pq beta_p alpha_q)   (plane wave)

A body is a :class:`~smallscat.core.Particle`, whose ``coupling`` is the soft or impedance
numerator; :func:`mesh_particle` computes one from a triangulated surface.

The capacitance uses the ratio ``4 pi |S|^2 / (double surface integral of
1/|s-t|)`` (dielectric constant 1).  The polarizability tensor solves the
static second-kind equation ``sigma_q = A0 sigma_q - 2 N_q`` with the
double-layer operator at zero wave number; the singular diagonal is fixed by
the row-sum identity (the discrete A0 applied to a constant density returns
-1 per row, exactly).

Panel quadrature is one point per triangle (centroid) with an analytic
self-panel integral of ``1/r``.  Both run as whole-mesh array operations: the
self integrals of all panels at once, the pair terms from distance matrices
(:func:`~smallscat.background.pair_distances`) with no ``(F, F, 3)`` difference
array.  Assembly is pure and reentrant, meshes are immutable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import manybody
from .background import pair_distances
from .core import BoundaryKind, Hard, Impedance, IncidentWave, Particle, Soft
from .errors import DegenerateMesh, MissingFunctional, SolveFailure
from .grids import record_eq

logger = logging.getLogger(__name__)

_AREA_TOL_REL: float = 1e-12
# traced peak of the dense panel arrays (the dipole system and the solver's copy of it),
# checked against the budget
_PANEL_PAIR_BYTES: int = 16


@dataclass(frozen=True)
class SurfaceMesh:
    """Closed, outward-oriented triangle mesh.

    Construction validates closedness (every edge shared by exactly two
    triangles, consistently oriented), positive enclosed volume, and
    non-degenerate panels.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    areas: np.ndarray = field(init=False, repr=False)
    centroids: np.ndarray = field(init=False, repr=False)
    normals: np.ndarray = field(init=False, repr=False)
    volume: float = field(init=False)
    volume_centroid: np.ndarray = field(init=False, repr=False)

    __eq__ = record_eq

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        f = np.asarray(self.triangles, dtype=int)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError(f"triangles must be (F, 3), got {f.shape}")
        if f.min(initial=0) < 0 or f.max(initial=-1) >= len(v):
            raise ValueError("triangle indices out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", f)

        p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
        cross = np.cross(p1 - p0, p2 - p0)
        norms = np.linalg.norm(cross, axis=1)
        scale = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
        if np.any(norms < 2.0 * _AREA_TOL_REL * scale**2):
            raise DegenerateMesh("mesh contains (near-)zero-area triangles")
        object.__setattr__(self, "areas", 0.5 * norms)
        object.__setattr__(self, "normals", cross / norms[:, None])
        object.__setattr__(self, "centroids", (p0 + p1 + p2) / 3.0)

        edges = f[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)  # (i, j), (j, k), (k, i) per triangle
        _, first = np.unique(edges @ [len(v), 1], return_index=True)
        if len(first) < len(edges):
            u, w = edges[np.setdiff1d(np.arange(len(edges)), first)[0]]
            raise DegenerateMesh(f"duplicated directed edge ({u},{w}); orientation broken")
        _, shared = np.unique(np.sort(edges, axis=1) @ [len(v), 1], return_counts=True)
        if np.any(shared != 2):
            raise DegenerateMesh("mesh is not closed: an edge is not shared by exactly 2 triangles")

        tet = np.einsum("ij,ij->i", p0, np.cross(p1, p2)) / 6.0
        vol = float(tet.sum())
        if vol <= 0:
            raise DegenerateMesh(f"signed volume {vol:.3e} <= 0; normals must point outward")
        object.__setattr__(self, "volume", vol)
        centroid = ((p0 + p1 + p2) / 4.0 * tet[:, None]).sum(axis=0) / vol
        object.__setattr__(self, "volume_centroid", centroid)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def diameter(self) -> float:
        """Exact maximum pairwise vertex distance (chunked O(V^2))."""
        v = self.vertices
        return max(float(pair_distances(v[i:i + 512], v).max()) for i in range(0, len(v), 512))

    def translated(self, offset) -> "SurfaceMesh":
        return SurfaceMesh(self.vertices + np.asarray(offset, dtype=float), self.triangles)

    def scaled(self, factor: float) -> "SurfaceMesh":
        return SurfaceMesh(self.vertices * float(factor), self.triangles)

    def rotated(self, rotation: np.ndarray) -> "SurfaceMesh":
        r = np.asarray(rotation, dtype=float).reshape(3, 3)
        return SurfaceMesh(self.vertices @ r.T, self.triangles)


# ---------------------------------------------------------------------------
# Mesh generators and ASCII ingestion
# ---------------------------------------------------------------------------
_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(subdivisions: int = 3, radius: float = 1.0) -> SurfaceMesh:
    """Subdivided icosahedron projected to a sphere (20 * 4^n triangles)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [np.array(v, dtype=float) for v in [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]]
    verts = [v / np.linalg.norm(v) for v in verts]
    faces = list(_ICO_FACES)
    for _ in range(subdivisions):
        cache: dict = {}
        new_faces = []

        def midpoint(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for (i, j, k) in faces:
            a, b, c = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces
    return SurfaceMesh(np.array(verts) * radius, np.array(faces, dtype=int))


def spheroid(subdivisions: int = 3, semi_axes=(1.0, 1.0, 2.0)) -> SurfaceMesh:
    """Ellipsoidal stretch of the icosphere."""
    base = icosphere(subdivisions, radius=1.0)
    return SurfaceMesh(base.vertices * np.asarray(semi_axes, dtype=float)[None, :],
                       base.triangles)


def load_obj(path) -> SurfaceMesh:
    """Read an ASCII OBJ file (``v``/``f`` records, triangles only)."""
    verts, faces = [], []
    with open(Path(path), "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                ids = [int(tok.split("/")[0]) for tok in parts[1:]]
                if len(ids) != 3:
                    raise DegenerateMesh(f"{path}:{line_no}: only triangle faces are supported")
                faces.append([i - 1 if i > 0 else len(verts) + i for i in ids])
    if not verts or not faces:
        raise DegenerateMesh(f"{path}: no usable v/f records")
    return SurfaceMesh(np.array(verts, dtype=float), np.array(faces, dtype=int))


def save_obj(mesh: SurfaceMesh, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.triangles:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


# ---------------------------------------------------------------------------
# Panel quadrature
# ---------------------------------------------------------------------------
def _self_potentials(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Analytic integrals of ``1/|x - c|`` over triangles ``(p0, p1, p2)``, ``c`` their centroids.

    Corners are ``(F, 3)`` arrays.  Each triangle is the union of three
    wedges ``(c, a, b)`` over its edges; a wedge at height ``h`` over the
    line through ``a, b`` contributes ``h (asinh(u_b / h) - asinh(u_a / h))``,
    with ``u`` the signed positions of ``a, b`` along the edge from the
    foot of ``c``.  A wedge of zero height contributes nothing.
    """
    c = (p0 + p1 + p2) / 3.0
    total = np.zeros(len(c))
    for a, b in ((p0, p1), (p1, p2), (p2, p0)):
        e = b - a
        to_a, to_b = a - c, b - c
        height_len = np.linalg.norm(np.cross(to_a, e), axis=1)  # h * |e|
        flat = height_len == 0.0
        length = np.linalg.norm(e, axis=1)
        length[flat] = 1.0
        h = np.where(flat, 1.0, height_len / length)
        ua = np.einsum("ij,ij->i", to_a, e) / length
        ub = np.einsum("ij,ij->i", to_b, e) / length
        total += np.where(flat, 0.0, h * (np.arcsinh(ub / h) - np.arcsinh(ua / h)))
    return total


def capacitance_zeroth(mesh: SurfaceMesh) -> float:
    """Capacitance from ``4 pi |S|^2 / (integral of 1/|s-t| over S x S)``.

    Off-diagonal panel pairs use centroid quadrature; the diagonal uses the
    analytic self-panel integral.  Scales linearly under dilation and is
    translation invariant.  Rows run in blocks of at most 2048 that fit the
    kernel budget; raises GridTooLarge if one row does not.
    """
    c, w = mesh.centroids, mesh.areas
    row_bytes = _PANEL_PAIR_BYTES * len(c)
    manybody._check_budget(row_bytes, f"capacitance row of {len(c)} panels")
    total = 0.0
    step = min(2048, manybody.KERNEL_BYTES_BUDGET // row_bytes)
    for i in range(0, len(c), step):
        inv = pair_distances(c[i:i + step], c)
        np.divide(1.0, inv, out=inv, where=inv > 0)  # a panel's own zero distance stays 0
        total += float(w[i:i + step] @ (inv @ w))
        del inv  # so the next block's peak does not add this one's
    corners = mesh.vertices[mesh.triangles]
    total += float((w * _self_potentials(corners[:, 0], corners[:, 1], corners[:, 2])).sum())
    return 4.0 * np.pi * float(w.sum())**2 / total


def static_double_layer_matrix(mesh: SurfaceMesh) -> np.ndarray:
    """Discrete static double-layer operator on centroid densities.

    Entry (i, j) applies 2 * d/dN_i [1 / (4 pi |s_i - t|)] integrated over
    panel j; diagonal entries are set so every row applied to the all-ones
    density gives exactly -1.  The normal projections ``N_i . (c_i - c_j)``
    are ``(N . c)_i - (N C^T)_ij``, so no ``(F, F, 3)`` array is formed.
    Raises GridTooLarge before assembling if the assembly's arrays
    (``_PANEL_PAIR_BYTES`` per panel pair) exceed the budget.
    """
    f = mesh.n_triangles
    manybody._check_budget(_PANEL_PAIR_BYTES * f * f, f"double-layer matrix of {f} panels")
    c, n, w = mesh.centroids, mesh.normals, mesh.areas
    r_cubed = pair_distances(c, c)
    np.fill_diagonal(r_cubed, 1.0)
    r_cubed *= r_cubed * r_cubed
    mat = n @ c.T
    mat -= np.einsum("ij,ij->i", n, c)[:, None]  # -N_i . (c_i - c_j)
    mat /= r_cubed
    del r_cubed
    mat *= w / (2.0 * np.pi)
    np.fill_diagonal(mat, 0.0)
    mat[np.diag_indices_from(mat)] = -1.0 - mat.sum(axis=1)
    return mat


def static_dipole_densities(mesh: SurfaceMesh) -> np.ndarray:
    """Solve ``sigma_q = A0 sigma_q - 2 N_q`` for the three axis-aligned dipole densities.

    Returns the centroid values, shape ``(F, 3)``, column ``q`` for axis ``q``;
    raises GridTooLarge as :func:`static_double_layer_matrix` does.
    """
    system = static_double_layer_matrix(mesh)
    np.negative(system, out=system)  # I - A0 in place, so A0 is not held beside it
    system[np.diag_indices_from(system)] += 1.0
    try:
        return np.linalg.solve(system, -2.0 * mesh.normals)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"static dipole solve failed: {exc}") from exc


def polarizability(mesh: SurfaceMesh) -> np.ndarray:
    """Shape tensor ``beta_pq = (1/|D|) integral t_p sigma_q(t) dt``, shape (3, 3).

    Moments are taken about the volume centroid (the continuum tensor is
    origin independent because the dipole densities have zero total charge;
    centering keeps the discrete result translation invariant).  For a sphere
    the result is -1.5 I up to discretization error.  ValueError if an entry is
    not finite.
    """
    sigmas = static_dipole_densities(mesh)
    moments = mesh.centroids - mesh.volume_centroid
    beta = np.einsum("ip,iq,i->pq", moments, sigmas, mesh.areas) / mesh.volume
    if not np.all(np.isfinite(beta)):
        raise ValueError("polarizability entries must be finite")
    return beta


# ---------------------------------------------------------------------------
# Particles from meshes, charges, amplitudes
# ---------------------------------------------------------------------------
def mesh_particle(center, mesh: SurfaceMesh, bc: BoundaryKind) -> Particle:
    """Particle whose functionals are computed from a triangulated surface.

    The mesh is interpreted in body coordinates; only its shape enters the
    functionals, the particle lives at ``center``.  The tensor is computed for a hard ``bc``.
    """
    a = 0.5 * mesh.diameter()
    return Particle(center=center, a=a, bc=bc, capacitance=capacitance_zeroth(mesh),
                    surface_factor=float(mesh.areas.sum()) / a**2, volume=mesh.volume,
                    polarizability=polarizability(mesh) if isinstance(bc, Hard) else None)


def charge_soft(capacitance: float, u0_at_center: complex) -> complex:
    """``Q = -C u0(center)``."""
    if capacitance <= 0:
        raise ValueError("capacitance must be positive")
    return -capacitance * u0_at_center


def charge_impedance(zeta: complex, area: float, u0_at_center: complex) -> complex:
    """``Q = -zeta |S| u0(center)`` (requires Im zeta <= 0)."""
    if area <= 0:
        raise ValueError("surface area must be positive")
    if np.imag(zeta) > 1e-15:
        raise ValueError("impedance must have Im zeta <= 0")
    return -zeta * area * u0_at_center


def charge_hard(laplacian_u0_at_center: complex, volume: float) -> complex:
    """``Q = (Laplacian u0)(center) |D|``."""
    if volume <= 0:
        raise ValueError("volume must be positive")
    return laplacian_u0_at_center * volume


def amplitude_onebody(particle: Particle, wave: IncidentWave, beta: np.ndarray) -> complex:
    """Far-field amplitude of ``particle`` taken at the origin, observed along ``beta``.

    Soft and impedance scattering are isotropic: ``A = -coupling u0(0) / (4 pi)``.  Hard
    scattering is anisotropic; the incident plane wave supplies ``grad u0 = ik alpha u0(0)``
    and ``lap u0 = -k^2 u0(0)``.  MissingFunctional for a hard particle without its tensor.
    """
    u0_center = complex(wave.amplitude)
    if isinstance(particle.bc, (Soft, Impedance)):
        return -particle.coupling / (4.0 * np.pi) * u0_center
    tensor = particle.polarizability  # hard: Particle refuses any other bc
    if tensor is None:
        raise MissingFunctional("hard amplitude needs the polarizability tensor")
    beta = np.asarray(beta, dtype=float).reshape(3)
    grad_u0 = 1j * wave.k * wave.alpha * u0_center
    lap_u0 = -(wave.k**2) * u0_center
    dipole = 1j * wave.k * np.einsum("p,pq,q->", beta, tensor, grad_u0)
    return particle.volume / (4.0 * np.pi) * (dipole + lap_u0)
