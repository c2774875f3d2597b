"""EXPERIMENTS.md is exactly what its builder renders from the results."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_committed_experiments_md_matches_render():
    spec = importlib.util.spec_from_file_location(
        "build_experiments_md", ROOT / "scripts" / "build_experiments_md.py")
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    assert (ROOT / "EXPERIMENTS.md").read_text() == builder.render(), (
        "EXPERIMENTS.md is stale: run python scripts/build_experiments_md.py")
