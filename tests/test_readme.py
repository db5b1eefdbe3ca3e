"""The README's library quick start runs as written and prints what it says."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_as_written(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start, library", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # each print line carries its output as the start of its comment
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    comments = [line.split("#", 1)[1].strip() for line in prints]
    assert len(printed) == len(comments)
    for out, comment in zip(printed, comments):
        assert comment.startswith(out), (out, comment)
