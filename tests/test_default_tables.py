"""The default tables, byte for byte.

``default_tables.sha256`` holds the SHA-256 digest of each command's
default table in each output format, in ``sha256sum`` layout (file names
``<command>[-<kind>].<format>``).  Each table is regenerated in-process and
compared; a change that moves a byte must update the digest and show the
moved cells against an oracle.
"""

import hashlib
import pathlib

import pytest

from chandisc import cli

DIGESTS = dict(reversed(line.split()) for line in
               (pathlib.Path(__file__).parent / "default_tables.sha256").read_text().splitlines())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_default_table_digest(tmp_path, name):
    stem, fmt = name.split(".")
    command, _, kind = stem.partition("-")
    out = tmp_path / name
    argv = ["--command", command, *(["--kind", kind] if kind else []),
            "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
