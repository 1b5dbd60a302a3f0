"""The per-layer trace of bench/layers.py patches strippack functions by
name.  These tests load that file read-only and check that every name it
patches still exists and is still on the path the CLI takes, so a rename
fails here instead of silently emptying a per-layer metric."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from strippack.cli import main

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves(layers):
    missing = []
    for modname, attr, *_ in layers.PATCHES + layers.COUNTED:
        mod = importlib.import_module(f"strippack.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"strippack.{modname}.{attr}")
    assert not missing, f"bench/layers.py patches missing names: {missing}"


def test_cli_passes_through_every_patch(layers, tmp_path, capsys):
    inst = tmp_path / "three.txt"
    inst.write_text("1/2\n1/2\n3/5\n")
    # BottomLeft tucks 1/5 under the 4/5 square's overhang, at (3/10, 0):
    # a step the skyline cannot settle, so its check reads the support
    tuck = tmp_path / "tuck.txt"
    tuck.write_text("3/10\n4/5\n1/5\n")
    csv = tmp_path / "out.csv"
    tracer = layers.Tracer()
    undo = layers.install(tracer)
    try:
        for argv in (["run", "--strategy", "bottomleft", "--csv", str(csv)],
                     ["run", "--strategy", "slot"],
                     ["verify", "--placements", str(csv)],
                     ["analyze", "--strategy", "bottomleft"],
                     ["analyze", "--strategy", "slot"]):
            assert main(argv + ["--input", str(inst)]) == 0
        assert main(["run", "--strategy", "bottomleft",
                     "--input", str(tuck)]) == 0
        assert main(["adversary", "--strategy", "slot",
                     "--iterations", "1"]) == 0
    finally:
        layers.uninstall(undo)
    capsys.readouterr()
    seen = {span[0] for span in tracer.spans}
    unseen = sorted({name for _, _, name, _, _ in layers.PATCHES} - seen)
    assert not unseen, f"spans never entered: {unseen}"
    for _, _, counter in layers.COUNTED:
        assert tracer.counts[counter] > 0, counter
    for owner, name, original in undo:
        assert getattr(owner, name) is original
