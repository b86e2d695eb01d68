"""The package's import surface and config keys match what the README
documents, and the benchmark tracer finds every name it patches."""

import importlib.util
import re
from pathlib import Path

import pinchsec
from pinchsec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_library_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    return {name for line in bullets for name in re.findall(r"`(\w+)`", line)}


def readme_config_lines():
    """{key: the text after `key`: } of each bullet of the README's config list."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\nConfig files are flat JSON", 1)[1].split("\n\n## ", 1)[0]
    return dict(re.findall(r"^- `(\w+)`: (.*)$", section, re.MULTILINE))


def test_config_keys_match_readme():
    lines = readme_config_lines()
    assert set(lines) == set(cli._CONFIG_KEYS)
    # "default, > bound" or "default, >= bound": the grid and path keys describe theirs in words
    for key, (kind, default, minimum, strict) in cli._CONFIG_KEYS.items():
        if kind in ("number", "int"):
            match = re.match(r"(\S+), (>=?) (\S+?)(?:;| |$)", lines[key])
            assert match, (key, lines[key])
            text, relation, bound = match.groups()
            assert (None if text == "none" else float(text)) == default, key
            assert (relation == ">", float(bound)) == (strict, minimum), key


def test_all_names_resolve():
    for name in pinchsec.__all__:
        assert getattr(pinchsec, name, None) is not None, name
    assert len(set(pinchsec.__all__)) == len(pinchsec.__all__)


def test_all_matches_readme():
    assert set(pinchsec.__all__) == readme_library_names()


def test_tracer_patch_points_resolve():
    # the benchmark's tracer wraps callees where pinchsec looks them up; a
    # refactor that unbinds one would silently zero its per-layer metrics
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert pinchsec.bounds.integrate is pinchsec.quad.integrate
