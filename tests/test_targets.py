r"""The `reproduce` targets: one registry, one writer, golden artifacts.

`tests/golden/` holds the files each target in `cli.TARGETS` writes at the
default configuration (`qracsim reproduce TARGET --out TARGET.csv`), and
`numpy_version.txt`, the numpy version they were made with. A change that
moves a paper artifact fails here. A deliberate one regenerates every file
from the repository root with

    PYTHONPATH=src python -c "import numpy, pathlib; from qracsim.cli import TARGETS, main; g = pathlib.Path('tests/golden'); [main(['reproduce', t, '--out', str(g / (t + '.csv'))]) for t in TARGETS]; (g / 'numpy_version.txt').write_text(numpy.__version__ + '\n')"

and names the files that moved in CHANGES.md. The fig4/fig5 JSON mirrors
embed `meta.version`, so a version bump regenerates them too.

numpy versions: table1 and table3 draw no random numbers and are compared
on every version. The other targets sample `Generator(Philox).multinomial`,
whose stream NEP 19 does not fix across numpy versions; on any version but
the recorded one they are skipped, with a reason naming both versions.
"""

import io
import json
from pathlib import Path

import numpy
import pytest

from qracsim import cli

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_NUMPY = (GOLDEN / "numpy_version.txt").read_text(encoding="utf-8").strip()
UNSAMPLED = {"table1", "table3"}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_golden_files_are_the_targets():
    assert {p.stem for p in GOLDEN.iterdir() if p.suffix in (".csv", ".json")} == set(cli.TARGETS)


@pytest.mark.parametrize("target", cli.TARGETS)
def test_default_outputs_match_golden(tmp_path, target):
    if target not in UNSAMPLED and numpy.__version__ != GOLDEN_NUMPY:
        pytest.skip(
            f"{target} samples numpy's Philox multinomial stream, which NEP 19 does not fix "
            f"across versions: golden files made with numpy {GOLDEN_NUMPY}, running {numpy.__version__}"
        )
    code, _, err = run_cli(["reproduce", target, "--out", str(tmp_path / f"{target}.csv")])
    assert code == 0, err
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.glob(f"{target}.*"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), f"{name} moved"


@pytest.mark.parametrize("target", cli.TARGETS)
def test_stdout_is_what_out_writes(tmp_path, target):
    argv = ["reproduce", target, "--rounds", "20000", "--power", "-25", "--seed", "5"]
    out = tmp_path / "out.csv"
    # the JSON mirror records run.format, so the files are written under json too
    to_file = run_cli(argv + ["--format", "json", "--out", str(out)])
    as_csv = run_cli(argv)
    as_json = run_cli(argv + ["--format", "json"])
    assert to_file[0] == as_csv[0] == as_json[0] and to_file[2] == as_csv[2] == as_json[2]
    assert as_csv[1].encode() == out.read_bytes()
    # only the figures have a JSON mirror; a table prints its CSV under json
    mirror = out.with_suffix(".json")
    assert mirror.exists() == target.startswith("fig")
    assert as_json[1].encode() == (mirror if mirror.exists() else out).read_bytes()


@pytest.mark.parametrize("failures, expected_code", [([], 0), (["p=0.9 above 0.8"], 3)], ids=["ok", "band"])
def test_a_new_target_is_one_entry(tmp_path, monkeypatch, failures, expected_code):
    def extra(config):
        return "seed\n" + f"{config.seed}\n", json.dumps({"seed": config.seed}), failures

    monkeypatch.setitem(cli.TARGETS, "extra", extra)
    out = tmp_path / "extra.csv"
    code, stdout, err = run_cli(["reproduce", "extra", "--seed", "4", "--out", str(out)])
    assert code == expected_code
    assert err == "".join(f"acceptance band failed: {failure}\n" for failure in failures)
    assert stdout == f"wrote {out} and {out.with_suffix('.json')}\n"
    assert out.read_text(encoding="utf-8") == "seed\n4\n"
    assert out.with_suffix(".json").read_text(encoding="utf-8") == '{"seed": 4}'
