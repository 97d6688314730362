"""Every mobiusdyn module but cli_runner stays under 4,096 tokens.

Python 3.11's parser grows its token array by doubling and allocates each
new token at once, so compiling a module just past 4,096 tokens takes
~230 KB more than compiling one just under.  A CLI child compiles every
module it imports (char_sums in each child, bsz_harness in bsz-report's),
so crossing the mark shows in the children's peak RSS.  Tokens are counted
with tokenize, comments and blank or continuation lines (NL) left out.
"""

import pathlib
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mobiusdyn"
PARSER_MARK = 4096
PAST_THE_MARK = {"cli_runner"}  # 4,618 tokens when this guard was added


def tokens(path: pathlib.Path) -> int:
    with tokenize.open(path) as f:
        return sum(1 for tok in tokenize.generate_tokens(f.readline) if tok.type not in (tokenize.COMMENT, tokenize.NL))


def test_only_the_modules_past_the_mark_are_exempt():
    # once cli_runner drops under the mark, it leaves PAST_THE_MARK and the guard covers it too
    for module in PAST_THE_MARK:
        assert tokens(SRC / f"{module}.py") >= PARSER_MARK


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem not in PAST_THE_MARK))
def test_module_stays_under_the_parser_mark(module):
    assert tokens(SRC / f"{module}.py") < PARSER_MARK
