"""The README's library example runs as written."""

from __future__ import annotations

import json
import re
from pathlib import Path

from citewin.synth import SynthConfig, generate

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_library_example_runs_on_the_readme_synth_config(tmp_path, monkeypatch, capsys):
    (config,) = blocks("json")
    (example,) = blocks("python")
    generate(SynthConfig.from_dict(json.loads(config)), tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("('MATH', 'PHYS') {")
    assert [line.split()[0] for line in out[1:]] == ["MATH", "PHYS"]
