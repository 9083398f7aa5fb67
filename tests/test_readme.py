"""The README's library examples, run line by line.

Each line of the Library block's Python example is run. A line with a
comment must give the value the comment starts with: a Python literal, or
"same" for the value of the line before.
"""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_lines():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def split_comment(line):
    """(code, comment) of one line, comment '' when there is none."""
    for tok in tokenize.generate_tokens(io.StringIO(line).readline):
        if tok.type == tokenize.COMMENT:
            return line[: tok.start[1]].rstrip(), tok.string[1:].strip()
    return line, ""


def promised_value(comment, previous):
    """The literal the comment starts with, cut at a comma if need be."""
    if comment == "same" or comment.startswith("same,"):
        return previous
    cuts = [i for i, ch in enumerate(comment) if ch == ","]
    for end in [len(comment), *reversed(cuts)]:
        try:
            return ast.literal_eval(comment[:end])
        except (ValueError, SyntaxError):
            continue
    raise AssertionError(f"no value in README comment {comment!r}")


def test_library_examples_give_their_commented_values():
    lines = library_lines()
    assert any(split_comment(line)[1] for line in lines)
    namespace = {}
    previous = None
    wrong = []
    for line in lines:
        code, comment = split_comment(line)
        if not comment:
            exec(code, namespace)
            continue
        want = promised_value(comment, previous)
        try:
            got = eval(code, namespace)
        except Exception as exc:  # report every wrong line, not only the first
            got = exc
        if got != want:
            wrong.append(f"{code}: got {got!r}, README says {want!r}")
        previous = want
    assert not wrong, "\n".join(wrong)
