import contextlib
import io
import json
import pathlib
import re

from brwre.cli import EXIT_OK, run

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the line `heading` in the README."""
    start = README.index(heading)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_library_use_snippet_prints_its_comment():
    code = fenced_block("## Library use", "python")
    expected = code.strip().splitlines()[-1].removeprefix("# ")
    assert expected == "GlobalSurvivalLocalExtinction right inf"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == expected + "\n"


def test_example_config_validates(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(fenced_block("Example config:", "json"))
    json.loads(path.read_text())
    assert run(str(path), "validate", outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK
