"""The documented library surface: `pdsq.__all__` is the README's list."""

import re
from pathlib import Path

import pdsq


def test_all_resolves_and_is_the_readme_list():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library use")[1].split("\n## ")[0]
    listed = {
        name for line in section.splitlines() if line.startswith(("- ", "  "))
        for name in re.findall(r"`(\w+)`", line)
    }
    assert sorted(pdsq.__all__) == sorted(listed)
    assert all(getattr(pdsq, name) is not None for name in pdsq.__all__)
    example = re.search(r"from pdsq import \(([^)]*)\)", section).group(1)
    assert {name.strip() for name in example.split(",")} <= listed
