"""The documented examples run: the package docstring and the README's library usage."""

import doctest
import re
from pathlib import Path

import lgdiamond

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_docstring_examples():
    result = doctest.testmod(lgdiamond)
    assert result.attempted and not result.failed


def test_readme_library_usage():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library usage") :]
    # only the fenced body, so the closing fence is not read as expected output
    body = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(
        body, {}, "README library usage", str(README), 0
    )
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result.attempted >= 6 and not result.failed
