"""The input digest: the built-in sha256 and `hashlib`'s fallback give `hashlib.sha256`'s bytes."""

import hashlib

import pytest

from conftest import run_program
from shadowlab import cli

INPUTS = [b"", b'{"n": 4, "d": 2, "sets": [[0, 1]]}', bytes(range(256)) * 4097]  # empty, short, over 1 MiB


def _expected(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("data", INPUTS, ids=["empty", "short", "over-1MiB"])
def test_digests_equal_hashlib(tmp_path, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert cli._digest_files([str(path)]) == _expected(data)
    assert cli._digest_files([str(path), str(path)]) == _expected(data + data)
    text = data.decode("latin-1")
    assert cli._digest_params(text) == _expected(text.encode())


def test_digests_equal_hashlib_without_the_builtin_modules(tmp_path):
    """With `_sha2` and `_sha256` blocked, the digest falls back to `hashlib` and its bytes do not change."""
    paths = []
    for i, data in enumerate(INPUTS):
        paths.append(tmp_path / f"input{i}")
        paths[-1].write_bytes(data)
    code = ("import hashlib, sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "from shadowlab import cli; assert cli.sha256 is hashlib.sha256; "
            "print(*[cli._digest_files([p]) for p in sys.argv[1:]], cli._digest_params('x' * 2**20))")
    out = run_program(list(map(str, paths)), prefix=["-c", code], text=True).done
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [*map(_expected, INPUTS), _expected(b"x" * 2**20)]
