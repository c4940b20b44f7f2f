"""Print the config keys that the demo configs' sections accept, one full key a line.

Runs ``smallscat.cli.main`` on every ``configs/*.yaml`` of the checkout in the current
directory, on that checkout's ``src/``, and records the keys each ``Section`` it builds
declares: for a section that names its ``kind``, ``kind`` and the keys of the kind taken.
List indices read as ``[]`` (``scene.particles[].center``).  The subcommand is the
config's top-level key (``scene`` runs ``solve``); the runs write to a temporary
directory, and their own output goes to stderr.  Exits non-zero if any demo does;
comparing the output of two checkouts (``comm``) shows the keys a change adds or removes.

    python .github/scripts/config_keys.py > keys.txt
"""

import contextlib
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from smallscat import cli, config  # noqa: E402

accepted = set()
section_init = config.Section.__init__


def recording_init(self, data, path, keys, *args, **kwargs):
    section_init(self, data, path, keys, *args, **kwargs)
    if isinstance(keys, dict):
        keys = ("kind", *keys[self.kind])
    accepted.update(re.sub(r"\[\d+\]", "[]", self.name(key)) for key in keys)


config.Section.__init__ = recording_init
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
    for path in sorted(Path("configs").glob("*.yaml")):
        command = re.search(r"^([a-z_]+):", path.read_text(), re.M).group(1)
        command = "solve" if command == "scene" else command
        if cli.main([command, "--config", str(path), "--out", f"{tmp}/{path.stem}"]) != 0:
            sys.exit(f"{path}: {command} exited non-zero")
print(*sorted(accepted), sep="\n")
