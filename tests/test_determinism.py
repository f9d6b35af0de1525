"""The --deterministic reports, CSVs and error messages of tools/determinism.py's
command set, against the digests recorded in tests/determinism.sha256.

After a change that moves bytes on purpose, rerun
`python tools/determinism.py --record OUTDIR` and say why in the change.
"""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "determinism.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("determinism", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_command_set_matches_the_recorded_digests(tmp_path, capsys):
    tool = _load_tool()
    code = tool.main(["determinism.py", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    recorded_versions, recorded = tool.read_record()
    found = tool.digests(tmp_path)
    differing = sorted(name for name in recorded.keys() | found.keys()
                       if recorded.get(name) != found.get(name))
    message = f"{len(differing)} files differ from the record: {', '.join(differing)}"
    if recorded_versions != tool.versions():
        message += f"; recorded with {recorded_versions}, run with {tool.versions()}"
    assert not differing, message
