# code lines: every line holding a token other than a comment, minus docstring lines
import ast, io, sys, tokenize, pathlib
def code_lines(path):
    src = pathlib.Path(path).read_text()
    doc = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            b = node.body
            if b and isinstance(b[0], ast.Expr) and isinstance(b[0].value, ast.Constant) and isinstance(b[0].value.value, str):
                doc.update(range(b[0].lineno, b[0].end_lineno + 1))
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)
# python3 sloc.py src/homcount: one "module count" line per file, then the total; exit 2 without a directory
# argument or if there is no .py file
if len(sys.argv) != 2:
    print("usage: python tools/sloc.py <package directory>", file=sys.stderr)
    sys.exit(2)
counts = {p.stem: code_lines(p) for p in sorted(pathlib.Path(sys.argv[1]).glob("*.py"))}
if not counts:
    print(f"no .py file in {sys.argv[1]}", file=sys.stderr)
    sys.exit(2)
for module, count in counts.items():
    print(module, count)
print("total", sum(counts.values()))
