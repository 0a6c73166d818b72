"""Smoke test: every demo's main() runs to the end and prints its sections."""
import importlib.util
import pathlib
import re

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

SECTIONS = {
    "quilt_growth": [
        "explicit generations (exact rationals)",
        "coverage recursion, n * sigma_n -> 4",
        "half-moment ratio E[K^(1/2)] / E[K]^(1/2), strictly increasing",
    ],
    "sharpness_slopes": [
        "case             predicted   fitted  control",
    ],
    "weighted_stability": [
        "reducing operators: p=2 closed form vs sampled certificates",
        "A_p constants and maximal operator norms across doublings",
    ],
}


def test_every_demo_is_covered():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(SECTIONS)


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_demo_prints_its_sections(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}",
                                                  DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    lines = out.splitlines()
    for header in SECTIONS[name]:
        assert header in lines
    assert len(lines) > 2 * len(SECTIONS[name])
    assert not re.search(r"\bnan\b|\binf\b", out, re.IGNORECASE)
