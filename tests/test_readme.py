"""README.md's Python examples run as written, at a small epoch budget."""

import re
from pathlib import Path

from mtnn import training as tr

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)  # the tour writes its files to the working directory
    monkeypatch.setattr(tr, "STUDY_EPOCHS", 20)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.startswith("step")  # the printed table
    assert (tmp_path / "trace.csv").exists()
