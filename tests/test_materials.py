import csv
import io
import json

import pytest

from tpadlab import materials
from tpadlab.errors import InvalidProperty, MalformedMaterialFile, UnknownMaterial

EXPECTED_NAMES = [
    "SLG_0.4",
    "SLG_0.56",
    "SLG_0.7",
    "D263_0.4",
    "D263_0.56",
    "Gorilla_0.56",
    "Gorilla_0.8",
    "BoroFloat_0.7",
]


def test_library_has_the_eight_reference_plates():
    names = [glass.name for glass in materials.material_library()]
    assert names == EXPECTED_NAMES


@pytest.mark.parametrize(
    "name,thickness,density,modulus",
    [
        ("SLG_0.4", 0.4e-3, 2483.0, 71e9),
        ("BoroFloat_0.7", 0.7e-3, 2200.0, 64e9),
        ("Gorilla_0.8", 0.8e-3, 2420.0, 71.5e9),
    ],
)
def test_lookup_returns_datasheet_values(name, thickness, density, modulus):
    glass = materials.lookup(name)
    assert glass.thickness == thickness
    assert glass.density == density
    assert glass.youngs_modulus == modulus


def test_library_is_deterministic():
    first, second = materials.material_library(), materials.material_library()
    assert first == second


def test_every_entry_is_self_consistent():
    lo, hi = materials.LIBRARY_THICKNESS_BAND_M
    for g in materials.material_library():
        assert g.thickness > 0 and g.density > 0 and g.youngs_modulus > 0
        assert lo <= g.thickness <= hi


def test_default_actuator_record():
    a = materials.default_actuator()
    assert a.thickness == 0.3e-3
    assert a.density == 7900.0
    assert a.youngs_modulus == 84e9
    assert a.static_capacitance == 9.88e-9


def test_lookup_unknown_name():
    with pytest.raises(UnknownMaterial):
        materials.lookup("SLG_9.9")


def _write(tmp_path, payload):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(payload))
    return path


def test_load_file_duplicating_a_builtin(tmp_path):
    path = _write(
        tmp_path,
        [{"name": "mine", "thickness_m": 0.4e-3, "density_kg_m3": 2483.0, "youngs_modulus_pa": 71e9}],
    )
    (loaded,) = materials.load_material_file(path)
    builtin = materials.lookup("SLG_0.4")
    assert (loaded.thickness, loaded.density, loaded.youngs_modulus) == (
        builtin.thickness,
        builtin.density,
        builtin.youngs_modulus,
    )


def test_load_empty_document(tmp_path):
    assert materials.load_material_file(_write(tmp_path, [])) == []


def test_load_rejects_negative_density(tmp_path):
    path = _write(
        tmp_path,
        [{"name": "bad", "thickness_m": 0.4e-3, "density_kg_m3": -1.0, "youngs_modulus_pa": 71e9}],
    )
    with pytest.raises(InvalidProperty):
        materials.load_material_file(path)


def test_load_rejects_unknown_keys(tmp_path):
    record = {
        "name": "bad",
        "thickness_m": 0.4e-3,
        "density_kg_m3": 2483.0,
        "youngs_modulus_pa": 71e9,
        "color": "green",
    }
    with pytest.raises(MalformedMaterialFile):
        materials.load_material_file(_write(tmp_path, [record]))


def test_load_rejects_duplicate_names(tmp_path):
    record = {"name": "dup", "thickness_m": 0.4e-3, "density_kg_m3": 2483.0, "youngs_modulus_pa": 71e9}
    with pytest.raises(MalformedMaterialFile):
        materials.load_material_file(_write(tmp_path, [record, record]))


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json {")
    with pytest.raises(MalformedMaterialFile):
        materials.load_material_file(path)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'[{"name": "Gr\xfcn"}]')
    with pytest.raises(MalformedMaterialFile, match="cannot read material file"):
        materials.load_material_file(path)


def test_load_rejects_infinite_density(tmp_path):
    path = tmp_path / "inf.json"
    record = '{"name": "x", "thickness_m": 4e-4, "density_kg_m3": Infinity, "youngs_modulus_pa": 71e9}'
    path.write_text(f"[{record}]")
    with pytest.raises(InvalidProperty, match="glass density must be positive and finite, got inf"):
        materials.load_material_file(path)


def test_load_rejects_meter_scale_thickness(tmp_path):
    # a "0.4" that was meant as millimeters
    path = _write(
        tmp_path,
        [{"name": "bad", "thickness_m": 0.4, "density_kg_m3": 2483.0, "youngs_modulus_pa": 71e9}],
    )
    with pytest.raises(InvalidProperty):
        materials.load_material_file(path)


def test_extras_shadow_builtins_in_lookup():
    extra = materials.GlassSpec("SLG_0.4", 0.5e-3, 2483.0, 71e9)
    assert materials.lookup("SLG_0.4", [extra]).thickness == 0.5e-3


def test_glass_spec_rejects_nonpositive_values():
    with pytest.raises(InvalidProperty):
        materials.GlassSpec("x", 0.0, 2483.0, 71e9)
    with pytest.raises(InvalidProperty):
        materials.GlassSpec("x", 0.4e-3, 2483.0, -71e9)


@pytest.mark.parametrize("name", ["a,b", 'say "x"', "a\rb", "a\nb", "\n"])
def test_glass_spec_rejects_names_that_break_a_csv_row(run_cli, tmp_path, name):
    """No name breaks a row: the table writer quotes it, and ``csv`` reads it back as one cell."""
    path = tmp_path / "extra.json"
    record = {"name": name, "thickness_m": 1e-3, "density_kg_m3": 2500, "youngs_modulus_pa": 7e10}
    path.write_text(json.dumps([record]))
    code, out = run_cli("materials", "--file", str(path), "--show", name)
    assert code == 0
    assert list(csv.reader(io.StringIO(out, newline=""))) == [
        ["name", "thickness_m", "density_kg_m3", "youngs_modulus_pa"],
        [name, "0.001", "2500", "70000000000"],
    ]
