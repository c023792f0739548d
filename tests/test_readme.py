"""README's `## Library` example runs, and every line it prints matches
the trailing `# comment` of the `print(...)` call that printed it."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _library_block() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_its_comments_say():
    code = _library_block()
    expected = [line.rsplit("# ", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected, "the Library block prints nothing"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
