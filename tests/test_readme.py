"""The README's library example prints what a reader expects."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_prints_plain_degree_lists(capsys):
    # The lines of the "Library use" block up to its training part.
    section = README.read_text().split("## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    head = block.split("# Train a small model", 1)[0]
    exec(compile(head, str(README), "exec"), {})
    want = "[-139.2, -120.9, -59.1, -40.8, 40.8, 59.1, 120.9, 139.2]"
    assert capsys.readouterr().out.splitlines() == [want, want]
