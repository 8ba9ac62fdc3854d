"""The suite's warning filters let a failing test fail without ending the session."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PAIR = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_given_fails(n):
    assert n < 0


def test_plain_fails():
    assert False
'''


def test_a_failing_given_test_is_one_failure_among_others(tmp_path):
    # hypothesis's report hook can touch a deprecated mypy_extensions name;
    # under error::DeprecationWarning that warning was an INTERNALERROR that
    # ended the session after the first failure
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path / "test_pair.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "2 failed" in out.strip().splitlines()[-1]
