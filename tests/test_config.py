import ast
import dataclasses
from pathlib import Path

import afcmem
from afcmem.config import ExperimentConfig


def test_every_config_field_is_read_outside_config():
    # a field that no module reads is a knob that changes no output
    read = set()
    for path in Path(afcmem.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert sorted(fields - read) == []
