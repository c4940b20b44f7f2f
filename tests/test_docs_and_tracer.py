"""The README's library example and scene schema, the package's export table, and the
benchmark's tracer against the names it wraps."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["solution"].residual <= 1e-10
    assert len(namespace["amps"].amplitudes) == 64
    assert namespace["limit"].values.shape == (512,)


def _refused_keys(scene) -> list:
    """The keys of the section that refuses the unknown key ``x_unknown`` in ``scene``."""
    import pytest

    from smallscat import ConfigError
    from smallscat.config import Section, scene_from_config
    with pytest.raises(ConfigError, match=r"\.x_unknown: unknown key") as refused:
        scene_from_config(Section({"scene": scene}, "", ("scene",)))
    return re.search(r"\(expected one of (.*)\)$", str(refused.value)).group(1).split(", ")


def test_readme_scene_schema_lists_the_keys_the_reader_accepts():
    import yaml
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("`solve` section (`scene:`):", 1)[1]
    scene = yaml.safe_load(re.search(r"```yaml\n(.*?)```", section, re.S).group(1))["scene"]
    place = {"wave": scene["wave"], "domain": scene["domain"]}
    assert sorted(scene) == sorted(_refused_keys(dict(scene, x_unknown=0)))
    assert sorted(scene["cloud"]) == sorted(_refused_keys(dict(place, cloud={"x_unknown": 0})))


def test_every_export_resolves_to_its_module_attribute():
    import smallscat
    exported = []
    for module_name, names in smallscat._EXPORTS.items():
        module = importlib.import_module(f"smallscat.{module_name}")
        for name in names:
            assert getattr(smallscat, name) is getattr(module, name), name
        exported += names
    assert smallscat.__all__ == sorted(exported)


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(holders):
    return {(id(holder), key): value for holder in holders for key, value in vars(holder).items()}


def test_tracer_targets_resolve_and_uninstall_restores_every_binding():
    tracing = _tracing()
    homes = []
    for _, module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"smallscat.{module}")
        *cls, name = attr.split(".")
        home = getattr(owner, cls[0]) if cls else owner
        assert callable(getattr(home, name)), f"smallscat.{module}.{attr}"
        homes.append((home, name))
    holders = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "smallscat" or n.startswith("smallscat."))]
    holders += [home for home, _ in homes if isinstance(home, type)]
    before = _bindings(holders)
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        for home, name in homes:
            assert getattr(home, name) is not before[(id(home), name)], name
    finally:
        tracer.uninstall()
    after = _bindings(holders)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
