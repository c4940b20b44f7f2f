import numpy as np
import pytest

import smallscat as ss
from smallscat.grids import CUBE_SELF_POTENTIAL, Box, GridCover


def test_box_basics(unit_box):
    assert unit_box.volume == pytest.approx(1.0)
    assert np.allclose(unit_box.center, 0.5)
    inside = unit_box.contains(np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]]))
    assert inside.tolist() == [True, False]


def test_box_rejects_empty_extent():
    with pytest.raises(ValueError):
        Box(lo=[0, 0, 0], hi=[1, 0, 1])


def test_cover_geometry(unit_box):
    cover = GridCover.from_shape(unit_box, 4)
    assert cover.n_cells == 64
    assert cover.cell_volume == pytest.approx(1.0 / 64)
    # centers tile the box: every cell contains exactly its center
    idx = cover.cell_index(cover.centers)
    assert np.array_equal(idx, np.arange(64))
    # union covers the box: random points always land in a valid cell
    rng = np.random.default_rng(0)
    pts = rng.random((200, 3))
    assert np.all(cover.cell_index(pts) < 64)


def test_cover_from_edge_rounds_to_whole_cells(unit_box):
    cover = GridCover.from_edge(unit_box, 0.27)
    assert cover.shape == (4, 4, 4)
    assert np.allclose(cover.cell_edges, 0.25)


def test_cube_self_potential_against_refinement_oracle():
    # midpoint quadrature of 1/|y - center| over the unit cube, Richardson in h^2
    def midpoint(n):
        e = np.linspace(-0.5, 0.5, n, endpoint=False) + 0.5 / n
        xx, yy, zz = np.meshgrid(e, e, e, indexing="ij")
        return float((1.0 / np.sqrt(xx**2 + yy**2 + zz**2)).mean())

    coarse, fine = midpoint(64), midpoint(128)
    extrapolated = fine + (fine - coarse) / 3.0
    assert CUBE_SELF_POTENTIAL == pytest.approx(extrapolated, rel=2e-6)


def test_self_green_integral_scales_with_cell_area(unit_box):
    c1 = GridCover.from_shape(unit_box, 2)
    c2 = GridCover.from_shape(unit_box, 4)
    assert c1.self_green_integral() == pytest.approx(4.0 * c2.self_green_integral())


def test_constant_and_affine_fields():
    const = ss.ConstantField(2.5)
    assert np.allclose(const.sample(np.zeros((4, 3))), 2.5)
    affine = ss.AffineField(value0=1.0, gradient=[1.0, 0.0, -2.0])
    vals = affine.sample(np.array([[1.0, 5.0, 0.5]]))
    assert vals[0] == pytest.approx(1.0 + 1.0 - 1.0)


def test_gaussian_bump_peak_and_base():
    bump = ss.GaussianBumpField(amplitude=3.0, center=[0.5, 0.5, 0.5], width=0.2, base=1.0)
    assert bump.sample(np.array([[0.5, 0.5, 0.5]]))[0] == pytest.approx(4.0)
    far = bump.sample(np.array([[50.0, 0.0, 0.0]]))[0]
    assert far == pytest.approx(1.0)


def test_gridded_field_roundtrip(tmp_path):
    axes = [np.linspace(0, 1, 5)] * 3
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    vals = 1.0 + xx + 2 * yy * zz
    rows = ["x,y,z,value"]
    for x, y, z, v in zip(xx.ravel(), yy.ravel(), zz.ravel(), vals.ravel()):
        rows.append(f"{x},{y},{z},{v}")
    path = tmp_path / "field.csv"
    path.write_text("\n".join(rows) + "\n")
    field = ss.GriddedField.from_csv(path)
    # exact at lattice nodes, trilinear (exact for this multilinear data) between
    pts = np.array([[0.25, 0.5, 0.75], [0.1, 0.2, 0.3]])
    expected = 1.0 + pts[:, 0] + 2 * pts[:, 1] * pts[:, 2]
    assert np.allclose(np.real(field.sample(pts)), expected, atol=1e-12)


def test_field_from_config_catalog():
    f = ss.field_from_config({"kind": "constant", "value": [1.0, -0.5]})
    assert f.sample(np.zeros((1, 3)))[0] == pytest.approx(1.0 - 0.5j)
    with pytest.raises(ss.ConfigError):
        ss.field_from_config({"kind": "mystery"})
