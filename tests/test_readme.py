"""The README's Python examples run as written, so it cannot name an export
that is gone, and its table of config keys names exactly the parser's."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_blocks_run_in_order():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                            re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)


def test_readme_key_table_names_every_config_key():
    from slicelab.config import _SCHEMA
    with open(README, encoding="utf-8") as fh:
        rows = re.findall(r"^\| (?:`\[(\w+)\]`|top level) \| `(\w+)` \|",
                          fh.read(), re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == {(s, k) for s, keys in _SCHEMA.items() for k in keys}
