import ast
import dataclasses
import math
import types
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afcmem
from afcmem.comb import TOOTH_SHAPES, CombParams
from afcmem.config import ExperimentConfig
from afcmem.detection import DetectionChain
from afcmem.harness import afc_efficiency
from afcmem.pulses import ChshSpec, HshSpec
from afcmem.spinbath import PulseErrorModel, SpinBathParams

SOURCES = sorted(Path(afcmem.__file__).parent.glob("*.py"))
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
ECHO_KEYS = ("comb_peak_od", "comb_finesse", "comb_period_hz",
             "afc_t2_seconds", "zeeman_split_hz")


def test_every_config_field_is_read_outside_config():
    # a field that no module reads is a knob that changes no output
    read = set()
    for path in SOURCES:
        if path.name == "config.py":
            continue
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert sorted(fields - read) == []


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


class _FileWrites(ast.NodeVisitor):
    """(function, call) of every open() for writing, and every write_text
    or write_bytes call whose content is not json_text(...) or to_json()."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        name = _called_name(node)
        if name == "open":
            # builtin open(file, mode) or Path.open(mode)
            args = node.args[isinstance(node.func, ast.Name):]
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        args[0] if args else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant)
                    and not set("wax+") & set(mode.value)):
                self.found.append((self.scope[-1], name))
        elif name in ("write_text", "write_bytes"):
            content = node.args[0] if node.args else None
            if not (name == "write_text" and isinstance(content, ast.Call)
                    and _called_name(content) in ("json_text", "to_json")):
                self.found.append((self.scope[-1], name))
        self.generic_visit(node)


def test_one_writer_per_file_format():
    # CSV goes through waveform.write_csv alone, JSON through json_text
    writes = []
    for path in SOURCES:
        visitor = _FileWrites()
        visitor.visit(ast.parse(path.read_text()))
        writes += [(path.name, *w) for w in visitor.found]
    assert writes == [("waveform.py", "write_csv", "open")]


def test_parameter_objects_check_themselves_when_built():
    # an object that exists is valid: it cannot be changed in place, a
    # changed copy is checked again, and nothing calls a validate() on it
    hsh = HshSpec(duration_s=15e-6, bandwidth_hz=1.5e6)
    for obj, name, bad in [
            (ExperimentConfig(), "seed", -1),
            (CombParams(40e3, finesse=4, peak_od=3), "finesse", 1.0),
            (SpinBathParams(), "n_atoms", 0),
            (PulseErrorModel(), "area_error", 0.5),
            (DetectionChain(), "dark_rate_hz", -1.0),
            (DetectionChain(), "detector_efficiency", 0.0),
            (DetectionChain(), "path_transmission", 0.0),
            (hsh, "edge_fraction", 0.5),
            (ChshSpec(base=hsh, separation_s=1e-6), "separation_s", 0.0)]:
        assert not hasattr(obj, "validate")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(ValueError) as info:
            dataclasses.replace(obj, **{name: bad})
        msg = str(info.value)
        assert msg and "\n" not in msg
    calls = [(path.name, node.lineno) for path in SOURCES
             if path.name != "tomography.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _called_name(node) == "validate"]
    assert calls == []


def test_runtime_imports_no_scipy():
    # the package needs numpy alone; scipy is the tests' reference oracle
    imports = [(path.name, node.lineno) for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Import)
               and any(a.name.split(".")[0] == "scipy" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.split(".")[0] == "scipy"]
    assert imports == []


def _echo_stage_is_clean(cfg) -> bool:
    """afc_efficiency(cfg) is finite and raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return math.isfinite(afc_efficiency(cfg))
        except (RuntimeWarning, OverflowError):
            return False


# log-uniform over the positive float64 range, subnormals included
_POSITIVE = st.floats(-1074, 1024, exclude_max=True).map(lambda e: 2.0**e)


@pytest.mark.parametrize("shape", TOOTH_SHAPES)
@settings(max_examples=150, deadline=None)
@given(peak_od=_POSITIVE, finesse_excess=_POSITIVE, period=_POSITIVE,
       t2=_POSITIVE, zeeman=_POSITIVE, zeeman_sign=st.sampled_from([1, -1]))
def test_echo_stage_probe(shape, peak_od, finesse_excess, period, t2, zeeman,
                          zeeman_sign):
    fields = dict(
        comb_tooth_shape=shape, comb_peak_od=peak_od,
        comb_finesse=max(1 + finesse_excess, math.nextafter(1, 2)),
        comb_period_hz=period, afc_t2_seconds=t2,
        zeeman_split_hz=zeeman_sign * zeeman)
    # afc_efficiency only reads attributes, so it can probe unchecked fields
    clean = _echo_stage_is_clean(
        types.SimpleNamespace(**{**_DEFAULTS, **fields}))
    try:
        ExperimentConfig(**fields)
    except ValueError as exc:
        msg = str(exc)
        assert msg and "\n" not in msg
        # the echo probe names every echo key and rejects exactly the
        # configs whose echo stage is not clean; the homogeneous-width
        # check before it names afc_t2_seconds alone, and the checks after
        # it reject configs whose echo stage is clean
        named = all(f"{key} " in msg for key in ECHO_KEYS)
        assert named != clean or msg.startswith("afc_t2_seconds ")
        return
    assert clean
