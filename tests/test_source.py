"""Every line of the package fits in 88 characters, the width its code is
written to, so a longer line fails here instead of in review."""

from pathlib import Path

WIDTH = 88
PACKAGE = Path(__file__).parent.parent / "src" / "pvdispatch"


def test_no_source_line_is_longer_than_88_characters():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no modules under {PACKAGE}"
    too_long = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sources
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if len(line) > WIDTH
    ]
    assert not too_long, too_long
