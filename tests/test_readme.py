"""The README's library tour runs against the package as it is."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_quick_tour_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour"):]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md: Library quick tour", "exec"), {})
