"""The maintenance tools under ``tools/``."""

import importlib.util
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_hash_runs_repeats_its_digests_and_restores_what_it_wraps(monkeypatch, capsys):
    # the tool puts the checkout's src/ and root first on sys.path; the patch
    # gives that back too
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("hash_runs", _TOOLS / "hash_runs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    originals = [getattr(module, name) for module, name in tool.HASHED]
    outputs = []
    for _ in range(2):
        assert tool.main(["--seeds", "101", "--tiny"]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1]
    names = [name for _, name in tool.HASHED] + ["outcomes"]
    assert [line.split()[0] for line in outputs[0]] == names
    assert all(int(line.split()[1]) > 0 and len(line.split()[2]) == 64 for line in outputs[0])
    assert [getattr(module, name) for module, name in tool.HASHED] == originals
