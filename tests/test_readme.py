import contextlib
import io
import json

from brwre.cli import EXIT_OK, run
from laws import readme_block


def test_library_use_snippet_prints_its_comment():
    code = readme_block("## Library use", "python")
    expected = code.strip().splitlines()[-1].removeprefix("# ")
    assert expected == "GlobalSurvivalLocalExtinction right inf"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == expected + "\n"


def test_example_config_validates(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(readme_block("Example config:", "json"))
    json.loads(path.read_text())
    assert run(str(path), "validate", outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK
