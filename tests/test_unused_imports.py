"""``tools/unused_imports.py``: F401 over the tree, and what F401 means."""

import importlib.util
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "unused_imports", os.path.join(REPO, "tools", "unused_imports.py")
)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def test_the_tree_has_no_unused_imports():
    paths = [os.path.join(REPO, name) for name in ("src", "tests", "tools", "examples")]
    assert tool.check(paths) == []


def test_what_counts_as_used():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os",  # 2: unused
            "import os.path as osp",  # 3: unused
            "import xml.dom",  # 4: binds ``xml``, read below
            "import json as json",  # 5: redundant alias re-exports
            "from typing import Optional, Sequence",  # 6: Sequence unused
            "from a import exported, quoted, nested, silenced  # noqa: F401",
            "from a import (",
            "    also_silenced,  # noqa",
            "    wrong_code,  # noqa: E501",  # 10: unused
            ")",
            "from b import *",
            "__all__ = ['exported']",
            "__all__ += ['osp_is_not_here']",
            "def f(x: 'quoted', y: Optional['nested']) -> None:",
            "    import sys",  # 16: unused
            "    return xml.dom",
        ]
    )
    assert tool.unused_imports(source) == [
        (2, "os"),
        (3, "os.path"),
        (6, "typing.Sequence"),
        (10, "a.wrong_code"),
        (16, "sys"),
    ]
