"""The input digest: the built-in sha256, `hashlib`'s fallback and `hashlib`'s for large inputs give
`hashlib.sha256`'s bytes."""

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


@pytest.mark.parametrize("size", [cli.OPENSSL_DIGEST_BYTES, cli.OPENSSL_DIGEST_BYTES + 1])
def test_kk_digests_a_family_on_either_side_of_the_openssl_threshold(tmp_path, monkeypatch, size):
    """A family file of the threshold's size takes the built-in sha256, one a byte larger `hashlib`'s."""
    data = b'{"n": 4, "d": 2, "sets": [[0, 1], [0, 2]]}'
    data += b" " * (size - len(data))  # JSON whitespace
    (tmp_path / "fam.json").write_bytes(data)
    built_in = []
    monkeypatch.setattr(cli, "sha256", lambda *args, sha256=cli.sha256: built_in.append(size) or sha256(*args))
    report, status = cli.run(["kk", "--family", str(tmp_path / "fam.json")])
    assert status == 0 and report["quantities"]["shadow_size"] == 3
    assert report["input_digest"] == _expected(data)
    assert built_in == ([size] if size <= cli.OPENSSL_DIGEST_BYTES else [])
