"""``tools/same_outputs.py`` finds no difference between a tree and itself,
and names exactly the files that a planted one-byte change alters."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_outputs)

# 9 dataset files, then 5 fit files
TINY = ["simulate --n 60 --q 3 --seed 1 --out data", "fit --data data --out fit"]


def test_a_tree_writes_what_it_writes():
    assert same_outputs.compare(ROOT, ROOT, TINY) == ([], 14)


def test_a_planted_change_names_the_files_it_alters(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    io_path = tmp_path / "src" / "factorem" / "io.py"
    text = io_path.read_text(encoding="utf-8")
    assert text.count("indent=2") == 1                  # _write_json's
    io_path.write_text(text.replace("indent=2", "indent=1"), encoding="utf-8")
    monkeypatch.setattr(same_outputs, "COMMANDS", TINY)
    assert same_outputs.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: data/manifest.json", "differs: fit/report.json", "2 of 14 files differ"]
