"""The size of ``src/pictomata``: lines and code lines per module, and
the totals.

Lines are the file's newline-terminated lines, as ``wc -l`` counts them.
Code lines are the lines that are not blank, not a comment alone, and not
inside a docstring (the string that opens a module, class or function
body).  Standard library only; from the repository root::

    python tests/size.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pictomata"


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            doc = node.body[0]
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str):
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """Lines and code lines of one module's source."""
    skip = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return text.count("\n"), len(code)


def sizes() -> dict[str, tuple[int, int]]:
    """Lines and code lines of each module, by file name."""
    return {path.name: count(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


if __name__ == "__main__":
    table = sizes()
    width = max(len(name) for name in table)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, (lines, code) in table.items():
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(v[0] for v in table.values()):>6}  {sum(v[1] for v in table.values()):>6}")
