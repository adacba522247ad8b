"""The public surface: ``snowflake_embed.__all__`` is the README's "Library API" table."""

import importlib
import re
from pathlib import Path

import snowflake_embed

README = Path(__file__).resolve().parents[1] / "README.md"


def api_table():
    """(name, module) of each row of the README's "Library API" table."""
    section = README.read_text(encoding="utf-8").split("\n## Library API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, flags=re.MULTILINE)


def test_all_is_the_readme_table():
    names = [name for name, _ in api_table()]
    assert len(names) == len(set(names))
    assert sorted(snowflake_embed.__all__) == sorted(names)


def test_every_listed_name_imports_from_its_module():
    for name, module in api_table():
        value = getattr(importlib.import_module(f"snowflake_embed.{module}"), name)
        assert getattr(snowflake_embed, name) is value
