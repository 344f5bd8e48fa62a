"""Structured triangulations of the rectangle and O-shape benchmark domains.

All meshes are built from axis-aligned squares of side h = 2**-level that are
halved along a diagonal.  The "nonsymmetric" pattern uses the same diagonal
everywhere; the "symmetric" pattern alternates diagonals so that each block of
2x2 cells is cut along the symmetry lines of the enclosing 2h-square.  Vertex
and edge indexing is lexicographic in (x2, x1), which makes generation fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

RECTANGLE_BOUNDS = (-5.0, 5.0, -2.0, 2.0)
OSHAPE_HOLE = (-4.0, 4.0, -1.0, 1.0)

PATTERNS = ("nonsymmetric", "symmetric")


class MeshError(ValueError):
    """Raised for nonconforming connectivity or unresolvable boundary data."""


@dataclass(frozen=True)
class TriangleMesh:
    """Conforming triangulation with precomputed edge geometry.

    vertices        (V, 2) coordinates
    triangles       (F, 3) vertex indices, counterclockwise
    edges           (E, 2) vertex indices with edges[i, 0] < edges[i, 1]
    edge_midpoints  (E, 2)
    edge_tangents   (E, 2) unit, from lower to higher vertex index
    edge_normals    (E, 2) unit, tangent rotated by +90 degrees
    edge_triangles  (E, 2) adjacent triangle indices, -1 on boundary side
    tri_edges       (F, 3) edge index opposite local vertex i
    dirichlet_edges (E,) bool, clamped subset of the boundary
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_midpoints: np.ndarray
    edge_tangents: np.ndarray
    edge_normals: np.ndarray
    edge_triangles: np.ndarray
    tri_edges: np.ndarray
    boundary_edges: np.ndarray
    dirichlet_edges: np.ndarray
    h_max: float
    h_min: float

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.edges, self.edge_midpoints,
                    self.edge_tangents, self.edge_normals, self.edge_triangles,
                    self.tri_edges, self.boundary_edges, self.dirichlet_edges):
            arr.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def euler_characteristic(self) -> int:
        """V - E + F; equals 1 minus the number of holes."""
        return self.num_vertices - self.num_edges + self.num_triangles

    @property
    def triangle_areas(self) -> np.ndarray:
        return triangle_areas(self.vertices, self.triangles)

    @property
    def domain_area(self) -> float:
        return float(self.triangle_areas.sum())

    @property
    def dirichlet_vertices(self) -> np.ndarray:
        """Sorted indices of vertices that are endpoints of a clamped edge."""
        if not self.dirichlet_edges.any():
            return np.empty(0, dtype=np.int64)
        return np.unique(self.edges[self.dirichlet_edges])

    def triangle_coords(self) -> np.ndarray:
        """(F, 3, 2) stacked vertex coordinates per triangle."""
        return self.vertices[self.triangles]


def triangle_areas(vertices, triangles) -> np.ndarray:
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def build_edge_data(vertices, triangles, dirichlet_pairs=()) -> TriangleMesh:
    """Assemble a TriangleMesh (edge geometry, adjacency) from raw cells.

    Rejects nonconforming connectivity: every edge must be shared by one or
    two triangles, every triangle must be counterclockwise and nondegenerate.
    """
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if triangles.size and triangles.max() >= len(vertices):
        raise MeshError("triangle refers to a vertex that does not exist")

    areas = triangle_areas(vertices, triangles)
    p = vertices[triangles]
    diam = np.maximum(
        np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
        np.maximum(np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
                   np.linalg.norm(p[:, 0] - p[:, 2], axis=1)))
    h_max = float(diam.max())
    h_min = float(diam.min())
    if (areas <= 1e-14 * h_max**2).any():
        bad = int(np.argmin(areas))
        raise MeshError(f"triangle {bad} is degenerate or clockwise (signed area {areas[bad]:.3e})")

    # Canonical edges (lo, hi), indexed lexicographically: by the key lo V + hi.
    raw = np.concatenate([triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]])
    raw.sort(axis=1)
    keys, inverse, counts = np.unique(raw[:, 0] * len(vertices) + raw[:, 1],
                                      return_inverse=True, return_counts=True)
    edges = np.column_stack([keys // len(vertices), keys % len(vertices)])
    if (counts > 2).any():
        bad = edges[counts > 2][0]
        raise MeshError(f"edge {tuple(bad)} is shared by more than two triangles")

    num_tri = len(triangles)
    tri_edges = inverse.reshape(3, num_tri).T.copy()

    # the triangles of an edge in the order of their rows in `raw`: by local
    # edge first, then by triangle index
    rows = np.argsort(inverse, kind="stable")
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    edge_triangles = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_triangles[inverse[rows], slot] = rows % num_tri
    boundary = counts == 1

    lo = vertices[edges[:, 0]]
    hi = vertices[edges[:, 1]]
    mid = 0.5 * (lo + hi)
    tang = hi - lo
    tang = tang / np.linalg.norm(tang, axis=1, keepdims=True)
    norm = np.stack([-tang[:, 1], tang[:, 0]], axis=1)

    dirichlet = np.zeros(len(edges), dtype=bool)
    if len(dirichlet_pairs):
        want = np.sort(np.asarray(dirichlet_pairs, dtype=np.int64), axis=1)
        keys = {tuple(e): i for i, e in enumerate(edges)}
        for pair in want:
            idx = keys.get(tuple(pair))
            if idx is None:
                raise MeshError(f"dirichlet edge {tuple(pair)} is not a mesh edge")
            if not boundary[idx]:
                raise MeshError(f"dirichlet edge {tuple(pair)} is interior")
            dirichlet[idx] = True

    return TriangleMesh(
        vertices=vertices, triangles=triangles, edges=edges,
        edge_midpoints=mid, edge_tangents=tang, edge_normals=norm,
        edge_triangles=edge_triangles, tri_edges=tri_edges,
        boundary_edges=boundary, dirichlet_edges=dirichlet,
        h_max=h_max, h_min=h_min)


def _structured_cells(level: int, bounds, pattern: str, hole=None):
    """Vertices and halved-square cells of a grid over `bounds` minus `hole`."""
    if level < 0:
        raise ValueError("level must be a nonnegative integer")
    if pattern not in PATTERNS:
        raise ValueError(f"pattern must be one of {PATTERNS}")
    x0, x1, y0, y1 = bounds
    h = 2.0 ** (-level)
    nx = round((x1 - x0) / h)
    ny = round((y1 - y0) / h)

    j, i = np.mgrid[0:ny, 0:nx]       # cell (i, j) at [j, i]
    keep = np.ones((ny, nx), dtype=bool)
    if hole is not None:
        hx0, hx1, hy0, hy1 = hole
        cx0, cy0 = x0 + i * h, y0 + j * h
        keep = ~((cx0 >= hx0 - 1e-12) & (cx0 + h <= hx1 + 1e-12)
                 & (cy0 >= hy0 - 1e-12) & (cy0 + h <= hy1 + 1e-12))

    used = np.zeros((ny + 1, nx + 1), dtype=bool)
    for dj in (0, 1):
        for di in (0, 1):
            used[dj:dj + ny, di:di + nx] |= keep

    # lexicographic in (x2, x1)
    index = np.full((ny + 1, nx + 1), -1, dtype=np.int64)
    index[used] = np.arange(used.sum())
    vj, vi = np.nonzero(used)
    coords = np.column_stack([x0 + vi * h, y0 + vj * h])

    cj, ci = np.nonzero(keep)
    a = index[cj, ci]
    b = index[cj, ci + 1]
    c = index[cj + 1, ci + 1]
    d = index[cj + 1, ci]
    if pattern == "nonsymmetric":
        swne = np.ones(len(cj), dtype=bool)
    else:
        # Diagonal through the center of the enclosing 2h-square.
        swne = (ci % 2) == (cj % 2)
    # per cell (a, b, c), (a, c, d) when cut from a to c, else (a, b, d), (b, c, d)
    tris = np.column_stack([a, b, np.where(swne, c, d), np.where(swne, a, b), c, d])
    return coords, tris.reshape(-1, 3)


def generate_rectangle_mesh(level: int, pattern: str = "nonsymmetric") -> TriangleMesh:
    """Triangulate (-5,5) x (-2,2) with 2*40/h^2 halved h-squares, h = 2**-level."""
    v, t = _structured_cells(level, RECTANGLE_BOUNDS, pattern)
    return build_edge_data(v, t)


def generate_oshape_mesh(level: int, pattern: str = "symmetric") -> TriangleMesh:
    """Triangulate the O-shape (-5,5) x (-2,2) minus [-4,4] x [-1,1]."""
    v, t = _structured_cells(level, RECTANGLE_BOUNDS, pattern, hole=OSHAPE_HOLE)
    return build_edge_data(v, t)


def tag_dirichlet_boundary(mesh: TriangleMesh, segments) -> TriangleMesh:
    """Return a mesh whose clamped edges are exactly those inside `segments`.

    Each segment is an axis-aligned pair ((x0, y0), (x1, y1)) lying on the
    domain boundary; it must be resolved exactly by mesh edges, otherwise the
    tagging is rejected with a diagnostic.
    """
    tol = 1e-10 * max(mesh.h_max, 1.0)
    tagged = np.zeros(mesh.num_edges, dtype=bool)
    ends = mesh.vertices[mesh.edges]  # (E, 2, 2)
    for seg in segments:
        (ax, ay), (bx, by) = seg
        lo = (min(ax, bx) - tol, min(ay, by) - tol)
        hi = (max(ax, bx) + tol, max(ay, by) + tol)
        inside = ((ends[..., 0] >= lo[0]) & (ends[..., 0] <= hi[0])
                  & (ends[..., 1] >= lo[1]) & (ends[..., 1] <= hi[1])).all(axis=1)
        if ax == bx:
            on_line = (np.abs(ends[..., 0] - ax) <= tol).all(axis=1)
            length = abs(by - ay)
        elif ay == by:
            on_line = (np.abs(ends[..., 1] - ay) <= tol).all(axis=1)
            length = abs(bx - ax)
        else:
            raise MeshError(f"segment {seg} is not axis-aligned")
        hit = inside & on_line & mesh.boundary_edges
        covered = np.linalg.norm(ends[hit, 1] - ends[hit, 0], axis=1).sum()
        if abs(covered - length) > tol * max(1.0, length):
            raise MeshError(
                f"segment {seg} is not resolved by boundary edges "
                f"(covered {covered:.6g} of {length:.6g})")
        tagged |= hit
    return replace(mesh, dirichlet_edges=tagged)


def save_mesh(mesh: TriangleMesh, path) -> None:
    """Plain-text persistence: header, vertices, triangles, tagged edges."""
    with open(path, "w") as f:
        f.write(f"vertices {mesh.num_vertices} triangles {mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.triangles:
            f.write(f"{a} {b} {c}\n")
        tagged = np.flatnonzero(mesh.dirichlet_edges)
        f.write(f"dirichlet_edges {len(tagged)}\n")
        for e in tagged:
            a, b = mesh.edges[e]
            f.write(f"{a} {b}\n")


def load_mesh(path) -> TriangleMesh:
    with open(path) as f:
        head = f.readline().split()
        if len(head) != 4 or head[0] != "vertices" or head[2] != "triangles":
            raise MeshError(f"{path}: not a mesh file")
        nv, nt = int(head[1]), int(head[3])
        verts = np.array([[float(w) for w in f.readline().split()] for _ in range(nv)])
        tris = np.array([[int(w) for w in f.readline().split()] for _ in range(nt)], dtype=np.int64)
        head = f.readline().split()
        if len(head) != 2 or head[0] != "dirichlet_edges":
            raise MeshError(f"{path}: missing dirichlet_edges section")
        pairs = [tuple(int(w) for w in f.readline().split()) for _ in range(int(head[1]))]
    return build_edge_data(verts, tris, dirichlet_pairs=pairs)
