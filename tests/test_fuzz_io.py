"""Mutation fuzzing of the file readers.

Each example mutates one token or one line of a valid spec, policy or dataset
file (the dataset's hidden trace included).  The reader must either raise a
``ConfgameError`` or return an object that round-trips: written back, read
and written again, the files are byte-identical.  The search is
derandomized, so the suite stays deterministic.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from confgame import fixtures, game, gameio
from confgame.errors import ConfgameError

FUZZ_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# replacement tokens: small integers only, so that no mutation asks a reader
# for a large allocation, and spellings that numeric parsers disagree on
TOKENS = (
    "", "0", "1", "2", "3", "-1", "7", "0.5", "-0.25", "1e300", "1e-320", "nan", "inf", "-inf",
    "x", "1_0", "0x1", "+1", "1.", ".5", "١", "[", "]", "=", "#", "init", "term",
    "shape=", "shape=2", "[alice]", "horizon", "=1",
)

T2 = fixtures.t2_spec()
KINDS = {  # kind: (a valid object, its writer, its reader)
    "spec": (T2, gameio.write_spec, gameio.read_spec),
    "policy": (game.stationary_deterministic_pairs(T2)[77], gameio.write_policy, gameio.read_policy),
    "dataset": (
        game.simulate_dataset(T2, n=3, seed=0),
        gameio.write_dataset,
        lambda path: gameio.read_dataset(path, with_hidden=True),
    ),
}


@st.composite
def mutations(draw, lines):
    """``lines`` with one token of one line replaced, or one line deleted,
    duplicated, blanked or swapped with another."""
    i = draw(st.integers(0, len(lines) - 1))
    out = list(lines)
    kind = draw(st.sampled_from(["token", "delete", "duplicate", "blank", "swap"]))
    if kind == "token":
        sep = "," if "," in lines[i] else " "
        tokens = lines[i].split(sep)
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
        out[i] = sep.join(tokens)
    elif kind == "delete":
        del out[i]
    elif kind == "duplicate":
        out.insert(i, lines[i])
    elif kind == "blank":
        out[i] = ""
    else:
        j = draw(st.integers(0, len(lines) - 1))
        out[i], out[j] = out[j], out[i]
    return out


def _files(path: str) -> list:
    """``path`` and, for a dataset that has one, its hidden trace."""
    return [p for p in (path, gameio.hidden_path(path)) if os.path.exists(p)]


def _written(kind: str) -> list:
    """The lines of each file that the writer of ``kind`` writes."""
    obj, write, _ = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid")
        write(obj, path)
        return [Path(p).read_text(encoding="utf-8").splitlines() for p in _files(path)]


CASES = {  # id: (kind, file of it to mutate, dataset read block or None for the default)
    "spec": ("spec", 0, None),
    "policy": ("policy", 0, None),
    "dataset": ("dataset", 0, None),
    "hidden-trace": ("dataset", 1, None),
    **{f"dataset-block{b}": ("dataset", 0, b) for b in (1, 40)},
    **{f"hidden-trace-block{b}": ("dataset", 1, b) for b in (1, 40)},
}


@pytest.mark.parametrize("kind, target, block", CASES.values(), ids=CASES)
def test_reader_rejects_or_round_trips_a_mutated_file(monkeypatch, kind, target, block):
    if block is not None:  # a size hint in characters: one line, or a few
        monkeypatch.setattr(gameio, "_READ_BLOCK", block)
    _, write, read = KINDS[kind]
    texts = _written(kind)

    @FUZZ_SETTINGS
    @given(mutations(texts[target]))
    def check(mutated):
        with tempfile.TemporaryDirectory() as tmp:
            path, back = os.path.join(tmp, "mutated"), os.path.join(tmp, "back")
            edited = texts[:target] + [mutated] + texts[target + 1 :]
            for name, lines in zip((path, gameio.hidden_path(path)), edited):
                Path(name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                obj = read(path)
            except ConfgameError:
                return
            write(obj, back)
            first = [Path(p).read_bytes() for p in _files(back)]
            write(read(back), back)
            assert [Path(p).read_bytes() for p in _files(back)] == first

    check()
