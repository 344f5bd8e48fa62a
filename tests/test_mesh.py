import numpy as np
import pytest

from plateflow import mesh as pm

from conftest import read_mesh_file


def assert_mesh_sound(m, holes):
    areas = m.triangle_areas
    assert (areas > 1e-14 * m.h_max**2).all()
    # conformity: every edge belongs to one or two triangles, boundary edges
    # to one
    t = m.triangles
    raw = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    edges, counts = np.unique(raw, axis=0, return_counts=True)
    assert np.array_equal(m.edges, edges) and (counts <= 2).all()
    assert np.array_equal(m.boundary_edges, counts == 1)
    # Euler characteristic V - E + F: 1 minus the number of holes
    assert m.num_vertices - m.num_edges + m.num_triangles == 1 - holes
    assert 0 < m.h_min <= m.h_max


@pytest.mark.parametrize("pattern", ["nonsymmetric", "symmetric"])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
def test_rectangle_generation(level, pattern):
    m = pm.generate_rectangle_mesh(level, pattern)
    h = 2.0 ** (-level)
    assert m.num_triangles == round(2 * 40 / h**2)
    assert np.isclose(m.domain_area, 40.0)
    assert np.isclose(m.h_max, h * np.sqrt(2.0))
    assert np.isclose(m.h_min, m.h_max)
    assert_mesh_sound(m, holes=0)


def test_rectangle_level3_has_5120_triangles():
    # published benchmark resolution
    for pattern in ("nonsymmetric", "symmetric"):
        assert pm.generate_rectangle_mesh(3, pattern).num_triangles == 5120


@pytest.mark.parametrize("level,count", [(1, 192), (2, 768), (3, 3072),
                                         (4, 12288), (5, 49152)])
def test_oshape_triangle_counts(level, count):
    m = pm.generate_oshape_mesh(level, "symmetric")
    assert m.num_triangles == count
    assert np.isclose(m.domain_area, 24.0)
    assert_mesh_sound(m, holes=1)


def test_oshape_level0_valid():
    assert_mesh_sound(pm.generate_oshape_mesh(0, "nonsymmetric"), holes=1)


def test_generation_is_deterministic():
    a = pm.generate_rectangle_mesh(2, "symmetric")
    b = pm.generate_rectangle_mesh(2, "symmetric")
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.edges, b.edges)


def loop_structured_cells(level, bounds, pattern, hole=None):
    """Plain-loop reference of `mesh._structured_cells`: one cell at a time,
    lexicographic in (x2, x1)."""
    x0, x1, y0, y1 = bounds
    h = 2.0 ** (-level)
    nx, ny = round((x1 - x0) / h), round((y1 - y0) / h)

    def in_hole(i, j):
        if hole is None:
            return False
        hx0, hx1, hy0, hy1 = hole
        cx0, cy0 = x0 + i * h, y0 + j * h
        return (cx0 >= hx0 - 1e-12 and cx0 + h <= hx1 + 1e-12
                and cy0 >= hy0 - 1e-12 and cy0 + h <= hy1 + 1e-12)

    keep = [[not in_hole(i, j) for i in range(nx)] for j in range(ny)]
    used = np.zeros((ny + 1, nx + 1), dtype=bool)
    for j in range(ny):
        for i in range(nx):
            if keep[j][i]:
                used[j:j + 2, i:i + 2] = True
    index = np.full((ny + 1, nx + 1), -1, dtype=np.int64)
    coords = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            if used[j, i]:
                index[j, i] = len(coords)
                coords.append((x0 + i * h, y0 + j * h))
    tris = []
    for j in range(ny):
        for i in range(nx):
            if not keep[j][i]:
                continue
            a, b = index[j, i], index[j, i + 1]
            c, d = index[j + 1, i + 1], index[j + 1, i]
            if pattern == "nonsymmetric" or (i % 2) == (j % 2):
                tris += [(a, b, c), (a, c, d)]
            else:
                tris += [(a, b, d), (b, c, d)]
    return np.array(coords, dtype=np.float64), np.array(tris, dtype=np.int64)


def loop_edge_data(triangles):
    """Plain-loop reference of `edges` and `boundary_edges`: edges as the
    lexicographically sorted rows (lo, hi), each in one or two triangles, and
    the boundary as the edges of one triangle."""
    count = {}
    for tri in triangles:
        for i in range(3):
            edge = tuple(sorted((int(tri[i]), int(tri[(i + 1) % 3]))))
            count[edge] = count.get(edge, 0) + 1
    assert set(count.values()) <= {1, 2}
    edges = sorted(count)
    return (np.array(edges, dtype=np.int64).reshape(-1, 2),
            np.array([count[e] == 1 for e in edges]))


@pytest.mark.parametrize("pattern", ["nonsymmetric", "symmetric"])
@pytest.mark.parametrize("hole", [None, pm.OSHAPE_HOLE], ids=["rectangle", "oshape"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_generation_matches_loop_reference(level, hole, pattern):
    v, t = pm._structured_cells(level, pm.RECTANGLE_BOUNDS, pattern, hole=hole)
    v_ref, t_ref = loop_structured_cells(level, pm.RECTANGLE_BOUNDS, pattern, hole=hole)
    assert v.dtype == v_ref.dtype and t.dtype == t_ref.dtype
    assert v.tobytes() == v_ref.tobytes()   # bit-identical coordinates
    assert np.array_equal(t, t_ref)
    m = pm.build_edge_data(v, t)
    for got, want in zip((m.edges, m.boundary_edges), loop_edge_data(t)):
        assert np.array_equal(got, want)


def test_counterclockwise_orientation():
    m = pm.generate_oshape_mesh(1, "symmetric")
    assert (m.triangle_areas > 0).all()


def test_edge_conventions():
    # an edge runs from the lower to the higher vertex index, and the edges
    # are sorted lexicographically, each once
    m = pm.generate_rectangle_mesh(0)
    assert (m.edges[:, 0] < m.edges[:, 1]).all()
    keys = m.edges[:, 0] * m.num_vertices + m.edges[:, 1]
    assert (np.diff(keys) > 0).all()


def test_build_edge_data_rejects_nonconforming():
    verts = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [-1, 1.0]])
    tris = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 1, 2]])  # edge (0,1) x2... (0,2) x3
    with pytest.raises(pm.MeshError):
        pm.build_edge_data(verts, tris)


def test_build_edge_data_rejects_clockwise():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(pm.MeshError):
        pm.build_edge_data(verts, np.array([[0, 2, 1]]))


def test_dirichlet_tagging_left_edge():
    m = pm.generate_rectangle_mesh(3)
    t = pm.tag_dirichlet_boundary(m, [((-5.0, -2.0), (-5.0, 2.0))])
    assert int(t.dirichlet_edges.sum()) == 32  # side length 4 / h
    assert (t.boundary_edges[t.dirichlet_edges]).all()
    # vertices: endpoints of tagged edges
    assert len(t.dirichlet_vertices) == 33
    assert np.allclose(m.vertices[t.dirichlet_vertices][:, 0], -5.0)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_oshape_corner_clamp_edge_count(level):
    m = pm.generate_oshape_mesh(level, "symmetric")
    t = pm.tag_dirichlet_boundary(m, [((-5.0, -2.0), (-5.0, -1.0)),
                                      ((-5.0, -2.0), (-4.0, -2.0))])
    assert int(t.dirichlet_edges.sum()) == 2 * 2**level


def test_empty_segment_list_tags_nothing():
    m = pm.generate_rectangle_mesh(1)
    t = pm.tag_dirichlet_boundary(m, [])
    assert int(t.dirichlet_edges.sum()) == 0
    assert len(t.dirichlet_vertices) == 0


def test_unresolved_segment_rejected():
    m = pm.generate_rectangle_mesh(1)
    # interior line: no boundary edges there
    with pytest.raises(pm.MeshError):
        pm.tag_dirichlet_boundary(m, [((0.0, -2.0), (0.0, 2.0))])
    # off-grid endpoints do not cover the segment exactly
    with pytest.raises(pm.MeshError):
        pm.tag_dirichlet_boundary(m, [((-5.0, -2.0), (-5.0, 0.3))])


def test_oshape_dof_count_matches_published_run():
    # the finest benchmark triangulation: 49152 triangles, 227511 free dofs
    m = pm.generate_oshape_mesh(5, "symmetric")
    t = pm.tag_dirichlet_boundary(m, [((-5.0, -2.0), (-5.0, -1.0)),
                                      ((-5.0, -2.0), (-4.0, -2.0))])
    free = m.num_vertices - len(t.dirichlet_vertices)
    assert 9 * free == 227511


def test_save_load_roundtrip(tmp_path):
    m = pm.generate_oshape_mesh(1, "symmetric")
    m = pm.tag_dirichlet_boundary(m, [((-5.0, -2.0), (-5.0, -1.0)),
                                      ((-5.0, -2.0), (-4.0, -2.0))])
    path = tmp_path / "mesh.txt"
    pm.save_mesh(m, path)
    vertices, triangles, clamped = read_mesh_file(path)
    assert np.array_equal(vertices, m.vertices)
    assert np.array_equal(triangles, m.triangles)
    assert np.array_equal(clamped, m.edges[m.dirichlet_edges])
    header = path.read_text().splitlines()[0]
    assert header == f"vertices {m.num_vertices} triangles {m.num_triangles}"


def test_save_is_bit_stable(tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    pm.save_mesh(pm.generate_rectangle_mesh(2, "symmetric"), p1)
    pm.save_mesh(pm.generate_rectangle_mesh(2, "symmetric"), p2)
    assert p1.read_bytes() == p2.read_bytes()
