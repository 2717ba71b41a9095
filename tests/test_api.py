"""The public surface of the package: what it exports, what the benchmark
in perfbench/ reads from it, and the README's library example."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import wordeq
import wordeq.cli
import wordeq.words
from wordeq import FiniteTable, Identity, MorphicPermutation

from test_check_stream import child_env

ROOT = Path(__file__).resolve().parent.parent


def test_all_lists_every_imported_name():
    tree = ast.parse(Path(wordeq.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(wordeq.__all__) == sorted(imported)


# perfbench/ runs against the library without changing with it, so a
# rename there shows only in its slower run; these are the names it reads
PERFBENCH_NAMES = {
    wordeq: [
        "Alphabet", "Word", "Basis", "PseudoSolution", "EqClass.of",
        "MorphicPermutation.from_cycles", "parse_relation", "descend", "is_code",
        "free_hull", "pseudo_free_hull", "class_factorization", "verify_axioms",
        "hull_oracle",
    ],
    wordeq.cli: ["main", "parse_config", "Report.machine_text"],
    wordeq.words: ["Word.__post_init__"],
}


def test_names_perfbench_reads_resolve():
    for module, names in PERFBENCH_NAMES.items():
        for name in names:
            obj = module
            for part in name.split("."):
                assert hasattr(obj, part), f"{module.__name__}.{name}"
                obj = getattr(obj, part)
    # the tracer replaces class_letters on each of these classes by name
    for cls in (Identity, MorphicPermutation, FiniteTable):
        assert "class_letters" in vars(cls), cls.__name__


def test_readme_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected = [m.group(1) for m in re.finditer(r"^print\(.*?\)\s*# (.*)$", block, re.M)]
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(expected) > 0
    for out, comment in zip(printed, expected):
        # a comment is the printed line, or that line and a remark after ", "
        assert comment == out or comment.startswith(out + ", "), (out, comment)
