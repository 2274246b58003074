import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from confgame import fixtures, game, gameio
from confgame.errors import CorruptRow, MalformedDataset, SchemaMismatch


def test_dataset_round_trip(tmp_path, t1):
    ds = game.simulate_dataset(t1, n=100, seed=4)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    back = gameio.read_dataset(str(path), with_hidden=True)
    assert back == ds
    assert back.hidden == ds.hidden


def test_round_trip_is_byte_stable(tmp_path, t1):
    ds = game.simulate_dataset(t1, n=50, seed=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    gameio.write_dataset(ds, str(p1))
    gameio.write_dataset(gameio.read_dataset(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_dataset_round_trip(tmp_path, t1):
    ds = game.simulate_dataset(t1, n=0, seed=0)
    path = tmp_path / "empty.csv"
    gameio.write_dataset(ds, str(path))
    assert gameio.read_dataset(str(path)) == ds


def test_header_horizon_mismatch(tmp_path, t1):
    ds = game.simulate_dataset(t1, n=5, seed=2)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("H=1", "H=2")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch):
        gameio.read_dataset(str(path))


def test_corrupt_row_reports_line_number(tmp_path, t1):
    ds = game.simulate_dataset(t1, n=5, seed=2)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    lines[3] = "not,a,row"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRow) as err:
        gameio.read_dataset(str(path))
    assert err.value.line_number == 4


def test_observed_file_has_no_hidden_column(tmp_path, t1):
    ds = game.simulate_dataset(t1, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    assert all(len(line.split(",")) == 10 for line in lines[1:] if line)
    # ten observed columns, no room for the private draw
    step_rows = [l for l in lines[1:] if l.split(",")[1] == "1"]
    assert len(step_rows[0].split(",")) == 10
    hidden = path.with_name(path.name + ".hidden")
    assert hidden.exists()


def test_spec_round_trip(tmp_path, t2):
    path = tmp_path / "t2.spec"
    gameio.write_spec(t2, str(path))
    back = gameio.read_spec(str(path))
    for name in (
        "init_state",
        "u_law",
        "trans",
        "alice_rew_act",
        "bob_act_base",
    ):
        assert np.array_equal(getattr(back, name), getattr(t2, name))
    assert back.horizon == t2.horizon and back.reward_noise == t2.reward_noise


def test_spec_file_layout_is_pinned(tmp_path):
    path = tmp_path / "t2-h3.spec"
    gameio.write_spec(fixtures.get_fixture("t2-h3"), str(path))
    keys = [line for line in path.read_text().splitlines() if "=" in line]
    assert keys == [
        "horizon = 3",
        "n_states = 2",
        "n_u = 1",
        "n_v1 = 2",
        "n_v2 = 2",
        "reward_noise = 0.10000000000000001",
        "[init_state] shape=2",
        "[u_law] shape=6,2,1",
        "[v1_law] shape=6,2,2",
        "[v2_law] shape=6,2,2",
        "[alice_act_base] shape=1,2,2,2",
        "[alice_act_iv] shape=1,2,2,2",
        "[bob_act_base] shape=1,2,2,2",
        "[bob_act_iv] shape=1,2,2,2",
        "[alice_rew_act] shape=1,2,2,2",
        "[alice_rew_iv] shape=1,2,2,2",
        "[alice_rew_inter] shape=1,2,2,2",
        "[alice_rew_resid] shape=1,2,2,2",
        "[bob_rew_act] shape=1,2,2,2",
        "[bob_rew_iv] shape=1,2,2,2",
        "[bob_rew_inter] shape=1,2,2,2",
        "[bob_rew_resid] shape=1,2,2,2",
        "[trans] shape=6,1,2,2,2,2,2,2",
    ]


def test_policy_round_trip(tmp_path, t2):
    pair = game.constant_policy_pair(t2, 0.25, 0.75, 1.0)
    path = tmp_path / "p.policy"
    gameio.write_policy(pair, str(path))
    back = gameio.read_policy(str(path))
    assert np.array_equal(back.alice, pair.alice)
    assert np.array_equal(back.bob, pair.bob)
    assert back.init_bob == pair.init_bob


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("horizon = 2", "horizon = two", "^scalar horizon = 'two' does not parse as int$"),
        ("n_states = 2", "n_states = 2.0", "^scalar n_states = '2.0' does not parse as int$"),
        ("reward_noise = 0.10000000000000001", "reward_noise = x", "^scalar reward_noise = 'x' does not parse as float$"),
        ("n_u = 1\n", "", "^spec file misses 'n_u'$"),
    ],
    ids=["horizon", "n_states", "reward_noise", "missing"],
)
def test_spec_scalars_are_checked(tmp_path, t2, old, new, message):
    path = tmp_path / "t2.spec"
    gameio.write_spec(t2, str(path))
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(SchemaMismatch, match=message):
        gameio.read_spec(str(path))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[bob] shape=1,1,2", "[bob] shape=1,2", r"^policy block \[bob\] has shape \(1, 2\); it must be indexed \[step, s, a_prev\]$"),
        ("[alice] shape=1,1,1,2", "[alice] shape=2,1,1", r"^policy block \[alice\] has shape \(2, 1, 1\)"),
        ("horizon = 1", "horizon = 7", r"^policy horizon = 7 disagrees with block \[alice\] of shape \(1, 1, 1, 2\)$"),
        ("init_bob = 0.5", "init_bob = half", "^scalar init_bob = 'half' does not parse as float$"),
    ],
    ids=["bob-rank", "alice-rank", "horizon", "init_bob"],
)
def test_policy_file_is_checked(tmp_path, t1, old, new, message):
    path = tmp_path / "p.policy"
    gameio.write_policy(game.constant_policy_pair(t1, 1.0, 0.0, 0.5), str(path))
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(SchemaMismatch, match=message):
        gameio.read_policy(str(path))


def test_policy_csv_export(tmp_path, t1):
    pair = game.constant_policy_pair(t1, 1.0, 0.0, 1.0)
    path = tmp_path / "pair.csv"
    gameio.export_policy_csv(pair, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "step,player,s,u,prev_action,action"
    assert len(lines) == 1 + 1 + 2 + 2  # header, opening rule, alice cells, bob cells


def test_hidden_trace_rejects_bad_rows(tmp_path, t2):
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    hidden = path.with_name(path.name + ".hidden")
    good = hidden.read_text().splitlines()  # header, then (traj, step) rows in order

    def read_with(lines):
        hidden.write_text("\n".join(lines) + "\n")
        return gameio.read_dataset(str(path), with_hidden=True)

    assert read_with(good).hidden == ds.hidden
    out_of_range = good[:2] + ["9" + good[2][1:]] + good[3:]
    with pytest.raises(SchemaMismatch, match="line 3: .*outside header n=3"):
        read_with(out_of_range)
    late_step = good[:1] + [good[1].replace(",1,", ",7,", 1)] + good[2:]
    with pytest.raises(SchemaMismatch, match="line 2: .*outside header n=3, H=2"):
        read_with(late_step)
    not_int = good[:1] + [",".join(good[1].split(",")[:2] + ["x"] + good[1].split(",")[3:])] + good[2:]
    with pytest.raises(CorruptRow) as err:
        read_with(not_int)
    assert err.value.line_number == 2
    # one row dropped, another relabelled step 1 of its trajectory
    relabelled = good[:1] + [good[1]] + [good[1].split(",")[0] + ",1," + good[2].split(",", 2)[2]] + good[4:]
    with pytest.raises(SchemaMismatch, match="line 3: duplicate"):
        read_with(relabelled)
    with pytest.raises(SchemaMismatch, match=r"misses \(trajectory, step\) \(0, 2\)"):
        read_with(good[:2] + good[3:])


def test_dataset_rejects_repeated_rows(tmp_path, t2):
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    good = path.read_text().splitlines()  # header, then init, steps and term per trajectory
    assert good[1].startswith("0,init,") and good[2].startswith("0,1,") and good[4].startswith("0,term,")

    def read_with(lines):
        path.write_text("\n".join(lines) + "\n")
        return gameio.read_dataset(str(path))

    step = good[2].split(",")
    step[5] = "123.0"  # a later copy would otherwise overwrite r_a
    with pytest.raises(SchemaMismatch, match=r"line 4: duplicate \(trajectory, step\) \(0, 1\)"):
        read_with(good[:3] + [",".join(step)] + good[3:])
    with pytest.raises(SchemaMismatch, match=r"line 3: duplicate \(trajectory, step\) \(0, init\)"):
        read_with(good[:2] + good[1:])
    with pytest.raises(SchemaMismatch, match=r"line 6: duplicate \(trajectory, step\) \(0, term\)"):
        read_with(good[:5] + good[4:])


@pytest.mark.parametrize(
    "line, col, value, message",
    [
        (7, 2, "5", "line 7: field s, trajectory 1, step 1: value 5 is not in 0..1"),
        (7, 5, "nan", "line 7: field r_a, trajectory 1, step 1: value nan is not finite"),
        (6, 8, "2", "line 6: field b_init, trajectory 1, step init: value 2 is not in 0..1"),
        (9, 2, "-1", "line 9: field s_term, trajectory 1, step term: value -1 is not in 0..1"),
    ],
    ids=["state", "reward", "opening_action", "terminal_state"],
)
def test_dataset_rejects_values_outside_their_space(tmp_path, t2, line, col, value, message):
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")  # trajectory 1: init, step 1, step 2, term on lines 6-9
    assert row[0] == "1"
    row[col] = value
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedDataset, match=f"^{message}$"):
        gameio.read_dataset(str(path))


def _row_writer(ds, path):
    """The dataset writer as it was before it wrote by columns, one row at a
    time: the reference for the file's bytes."""
    lines = [f"#confgame v1 H={ds.horizon} n={ds.n} ns={ds.n_states} nu={ds.n_u}"]
    for i in range(ds.n):
        lines.append(f"{i},init,,,,,,,{ds.b_init[i]},")
        for h in range(ds.horizon):
            lines.append(
                f"{i},{h + 1},{ds.s[i, h]},{ds.u[i, h]},{ds.a[i, h]},{ds.r_a[i, h]:.17g},"
                f"{ds.s_half[i, h]},{ds.u_half[i, h]},{ds.b[i, h]},{ds.r_b[i, h]:.17g}"
            )
        lines.append(f"{i},term,{ds.s_term[i]},,,,,,,")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    hl = [f"#confgame-hidden v1 H={ds.horizon} n={ds.n}"]
    for i in range(ds.n):
        for h in range(ds.horizon):
            hl.append(
                f"{i},{h + 1},{ds.hidden.v1[i, h]},{ds.hidden.v2[i, h]},"
                f"{ds.hidden.v1_half[i, h]},{ds.hidden.v2_half[i, h]}"
            )
    with open(gameio.hidden_path(path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(hl) + "\n")


@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("name", ["t1", "t2", "t2-h3"])
def test_writer_bytes_match_the_row_writer(tmp_path, name, n):
    ds = game.simulate_dataset(fixtures.get_fixture(name), n=n, seed=n + 5)
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    _row_writer(ds, str(ref))
    gameio.write_dataset(ds, str(out))
    assert out.read_bytes() == ref.read_bytes()
    assert Path(gameio.hidden_path(str(out))).read_bytes() == Path(gameio.hidden_path(str(ref))).read_bytes()


def test_writer_writes_a_column_of_another_dtype_as_the_row_writer(tmp_path, t2):
    ds = game.simulate_dataset(t2, n=3, seed=0)
    ds.s = ds.s + 0.5  # float states: written as they are, never truncated to integers
    ds.b = ds.b.astype(bool)
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    _row_writer(ds, str(ref))
    gameio.write_dataset(ds, str(out))
    assert out.read_bytes() == ref.read_bytes()
    with pytest.raises(CorruptRow, match="^line 3: unparseable field: invalid literal for int"):
        gameio.read_dataset(str(out))


@pytest.mark.parametrize("wide", [False, True], ids=["negative", "negative-and-wide"])
def test_writer_writes_negative_and_wide_integers_as_the_row_writer(tmp_path, t2, wide):
    ds = game.simulate_dataset(t2, n=50, seed=0)
    ds.s[3, 1] = -1  # within the table's reach
    ds.hidden.v2[4, 0] = -7
    if wide:  # a range far wider than n: every field on its own
        ds.s[5, 0] = 10**12
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    _row_writer(ds, str(ref))
    gameio.write_dataset(ds, str(out))
    assert out.read_bytes() == ref.read_bytes()
    assert Path(gameio.hidden_path(str(out))).read_bytes() == Path(gameio.hidden_path(str(ref))).read_bytes()


WRITER_SHAPE_CASES = {  # t2 (two steps) with n = 500
    "b_init": (lambda ds: {"b_init": ds.b_init[:-1]}, "field b_init: shape (499,), expected (500,)"),
    "s_term": (lambda ds: {"s_term": ds.s_term[:-1]}, "field s_term: shape (499,), expected (500,)"),
    "r_a": (lambda ds: {"r_a": ds.r_a[:-1]}, "field r_a: shape (499, 2), expected (500, 2)"),
    "b": (lambda ds: {"b": ds.b[:, :1]}, "field b: shape (500, 1), expected (500, 2)"),
    "u": (lambda ds: {"u": ds.u[:, 0]}, "field u: shape (500,), expected (500, 2)"),
    "horizon": (lambda ds: {"horizon": 3}, "field s: shape (500, 2), expected (500, 3)"),
    "extra steps": (lambda ds: {"horizon": 1}, "field s: shape (500, 2), expected (500, 1)"),
    "hidden v1": (
        lambda ds: {"hidden": replace(ds.hidden, v1=ds.hidden.v1[:-1])},
        "field hidden v1: shape (499, 2), expected (500, 2)",
    ),
    "hidden v2_half": (
        lambda ds: {"hidden": replace(ds.hidden, v2_half=ds.hidden.v2_half[:, :1])},
        "field hidden v2_half: shape (500, 1), expected (500, 2)",
    ),
}


@pytest.mark.parametrize("change, message", WRITER_SHAPE_CASES.values(), ids=WRITER_SHAPE_CASES)
def test_writer_rejects_arrays_of_the_wrong_shape_before_writing(tmp_path, t2, change, message):
    ds = game.simulate_dataset(t2, n=500, seed=0)
    path = tmp_path / "bad.csv"
    with pytest.raises(MalformedDataset, match=f"^{re.escape(message)}$"):
        gameio.write_dataset(replace(ds, **change(ds)), str(path))
    assert not path.exists() and not Path(gameio.hidden_path(str(path))).exists()


@pytest.mark.parametrize("block", [64, 1 << 18], ids=["small-blocks", "one-block"])
def test_rows_in_any_order_with_blank_lines(tmp_path, t2, monkeypatch, block):
    monkeypatch.setattr(gameio, "_READ_BLOCK", block)
    ds = game.simulate_dataset(t2, n=40, seed=3)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    rng = np.random.default_rng(0)
    for p in (path, Path(gameio.hidden_path(str(path)))):
        header, *rows = p.read_text().splitlines()
        rows = [rows[i] for i in rng.permutation(len(rows))]
        for at in sorted(rng.choice(len(rows), size=6, replace=False), reverse=True):
            rows.insert(at, "")
        p.write_text("\n".join([header, "", *rows, ""]) + "\n")
    back = gameio.read_dataset(str(path), with_hidden=True)
    assert back == ds and back.hidden == ds.hidden


@pytest.mark.parametrize(
    "line, col, value, error, message",
    [
        (2, 0, "-1", SchemaMismatch, "^line 2: trajectory id -1 outside header n=3$"),
        (7, 0, "-1", SchemaMismatch, "^line 7: trajectory id -1 outside header n=3$"),
        (9, 0, "3", SchemaMismatch, "^line 9: trajectory id 3 outside header n=3$"),
        (7, 1, "0", SchemaMismatch, "^line 7: step 0 outside header horizon H=2$"),
        (7, 1, "3", SchemaMismatch, "^line 7: step 3 outside header horizon H=2$"),
        (7, 3, "1_0", CorruptRow, "^line 7: unparseable field: could not convert string '1_0'"),
        (7, 5, "0.5x", CorruptRow, "^line 7: unparseable field: could not convert string to float: '0.5x'$"),
        (6, 8, "b", CorruptRow, "^line 6: unparseable field: invalid literal for int"),
        (6, 0, "x", CorruptRow, "^line 6: bad trajectory id 'x'$"),
    ],
    ids=["init-traj", "step-traj", "term-traj", "step-0", "step-past-H", "python-only-int",
         "reward", "opening-action", "traj-id"],
)
def test_dataset_rejects_ids_and_fields(tmp_path, t2, line, col, value, error, message):
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")  # trajectory 1: init, step 1, step 2, term on lines 6-9
    row[col] = value
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error, match=message):
        gameio.read_dataset(str(path))


@pytest.mark.parametrize(
    "line, col, value, message",
    [
        (6, 2, "x", "init row holds 'x' in field s"),
        (6, 3, "7", "init row holds '7' in field u"),
        (2, 9, " ", "init row holds ' ' in field r_b"),
        (9, 9, "zz", "term row holds 'zz' in field r_b"),
        (5, 3, "0", "term row holds '0' in field u"),
        (9, 4, "\0", "term row holds '\\x00' in field a"),
    ],
    ids=["init-first", "init-number", "init-space", "term-last", "term-number", "term-nul"],
)
@pytest.mark.parametrize("block", [1, 40, 1 << 16], ids=["line-blocks", "later-block", "one-block"])
def test_unused_init_and_term_fields_must_be_empty(tmp_path, t2, monkeypatch, block, line, col, value, message):
    monkeypatch.setattr(gameio, "_READ_BLOCK", block)
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()  # trajectory 0 on lines 2-5, trajectory 1 on lines 6-9
    row = lines[line - 1].split(",")
    assert row[col] == ""
    row[col] = value
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRow, match=f"^line {line}: {re.escape(message)}, which must be empty$"):
        gameio.read_dataset(str(path))


@pytest.mark.parametrize("fields", [9, 11])
@pytest.mark.parametrize("line", [6, 9], ids=["init", "term"])
def test_init_and_term_rows_need_ten_fields(tmp_path, t2, line, fields):
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")
    lines[line - 1] = ",".join(row[:fields] + [""] * (fields - len(row)))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRow, match=f"^line {line}: expected 10 fields, got {fields}$"):
        gameio.read_dataset(str(path))


@pytest.mark.parametrize("copy_of", [2, 3, 5], ids=["init", "step", "term"])
@pytest.mark.parametrize("block", [1, 40, 200])
def test_repeated_row_in_a_later_block_is_reported_at_its_line(tmp_path, t2, monkeypatch, block, copy_of):
    monkeypatch.setattr(gameio, "_READ_BLOCK", block)  # a size hint in characters: one to a few lines
    ds = game.simulate_dataset(t2, n=6, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:14] + [lines[copy_of - 1]] + lines[14:]) + "\n")
    with pytest.raises(SchemaMismatch, match=r"^line 15: duplicate \(trajectory, step\) \(0, "):
        gameio.read_dataset(str(path))


@pytest.mark.parametrize("block", [1, 40, 200])
def test_repeated_hidden_row_in_a_later_block_is_reported_at_its_line(tmp_path, t2, monkeypatch, block):
    monkeypatch.setattr(gameio, "_READ_BLOCK", block)
    ds = game.simulate_dataset(t2, n=6, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    hidden = Path(gameio.hidden_path(str(path)))
    lines = hidden.read_text().splitlines()
    hidden.write_text("\n".join(lines[:9] + [lines[1]] + lines[9:]) + "\n")
    with pytest.raises(SchemaMismatch, match=r"^line 10: duplicate \(trajectory, step\) \(0, 1\)$"):
        gameio.read_dataset(str(path), with_hidden=True)


def test_empty_dataset_reads_without_warnings(tmp_path, t2):
    path = tmp_path / "empty.csv"
    gameio.write_dataset(game.simulate_dataset(t2, n=0, seed=0), str(path))
    path.write_text(path.read_text() + "\n\n")  # a body of blank lines only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = gameio.read_dataset(str(path), with_hidden=True)
    assert back.n == 0 and back.hidden.v1.shape == (0, 2)


def _write_hidden_with(tmp_path, ds, line, edit):
    """Write ``ds``, with the fields of its hidden trace's line ``line``
    replaced by ``edit(fields)``; the dataset's path."""
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    hidden = Path(gameio.hidden_path(str(path)))
    lines = hidden.read_text().splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    hidden.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("fields", [5, 7])
def test_hidden_rows_need_six_fields(tmp_path, t2, fields):
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = _write_hidden_with(tmp_path, ds, 4, lambda row: row[:fields] + ["0"] * (fields - len(row)))
    with pytest.raises(CorruptRow, match=f"^line 4: expected 6 fields, got {fields}$"):
        gameio.read_dataset(path, with_hidden=True)


@pytest.mark.parametrize(
    "col, value, error, message",
    [
        (2, "x", CorruptRow, "^line 11: unparseable field: invalid literal for int"),
        (4, "1_0", CorruptRow, "^line 11: unparseable field: could not convert string '1_0'"),
        (0, "6", SchemaMismatch, r"^line 11: \(trajectory, step\) \(6, 2\) outside header n=6, H=2$"),
    ],
    ids=["not-int", "python-only-int", "trajectory"],
)
@pytest.mark.parametrize("block", [1, 40, 1 << 16], ids=["line-blocks", "later-block", "one-block"])
def test_bad_hidden_field_is_reported_at_its_line(tmp_path, t2, monkeypatch, block, col, value, error, message):
    monkeypatch.setattr(gameio, "_READ_BLOCK", block)  # a size hint in characters: one line, a few, or all
    ds = game.simulate_dataset(t2, n=6, seed=0)
    path = _write_hidden_with(tmp_path, ds, 11, lambda row: row[:col] + [value] + row[col + 1 :])  # (4, 2)
    with pytest.raises(error, match=message):
        gameio.read_dataset(path, with_hidden=True)


@pytest.mark.parametrize(
    "line, missing", [(4, "(0, 2)"), (5, "(0, term)"), (6, "(1, init)")], ids=["step", "term", "init"]
)
@pytest.mark.parametrize("block", [40, 1 << 16])
def test_dataset_names_its_first_missing_row(tmp_path, t2, monkeypatch, block, line, missing):
    monkeypatch.setattr(gameio, "_READ_BLOCK", block)
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()  # trajectory 0: init, step 1, step 2, term on lines 2-5
    path.write_text("\n".join(lines[: line - 1] + lines[line:]) + "\n")
    with pytest.raises(SchemaMismatch, match=rf"^dataset misses \(trajectory, step\) {re.escape(missing)}$"):
        gameio.read_dataset(str(path))


def _count_tagged(monkeypatch) -> list:
    """Route ``gameio._parse_tagged`` through a wrapper; the list it appends
    one entry to per call."""
    calls, parse = [], gameio._parse_tagged

    def counted(lines, horizon):
        calls.append(len(lines))
        return parse(lines, horizon)

    monkeypatch.setattr(gameio, "_parse_tagged", counted)
    return calls


@pytest.mark.parametrize("block", [1, 40, 1 << 16])
@pytest.mark.parametrize("name", ["t1", "t2-h3"])
def test_the_writers_layout_is_routed_by_position(tmp_path, monkeypatch, name, block):
    monkeypatch.setattr(gameio, "_READ_BLOCK", block)
    ds = game.simulate_dataset(fixtures.get_fixture(name), n=60, seed=2)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    calls = _count_tagged(monkeypatch)
    back = gameio.read_dataset(str(path), with_hidden=True)
    assert back == ds and back.hidden == ds.hidden
    assert calls == []


@pytest.mark.parametrize(
    "line, tag",
    [(6, "initial"), (6, " init"), (6, "init "), (6, "init\0"), (9, "term "), (9, "term\0")],
    ids=["initial", "space-init", "init-space", "init-nul", "term-space", "term-nul"],
)
@pytest.mark.parametrize("block", [40, 1 << 16])
def test_a_tag_that_only_looks_right_is_read_by_its_tag(tmp_path, t2, monkeypatch, block, line, tag):
    monkeypatch.setattr(gameio, "_READ_BLOCK", block)
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()  # trajectory 1: init, step 1, step 2, term on lines 6-9
    row = lines[line - 1].split(",")
    row[1] = tag
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    message = f"line {line}: unparseable field: invalid literal for int() with base 10: {tag!r}"
    with pytest.raises(CorruptRow, match=f"^{re.escape(message)}$"):
        gameio.read_dataset(str(path))


@pytest.mark.parametrize("block", [40, 1 << 16])
def test_swapped_steps_are_read_by_their_tags(tmp_path, t2, monkeypatch, block):
    monkeypatch.setattr(gameio, "_READ_BLOCK", block)
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    lines[6], lines[7] = lines[7], lines[6]  # trajectory 1's steps 1 and 2
    path.write_text("\n".join(lines) + "\n")
    calls = _count_tagged(monkeypatch)
    assert gameio.read_dataset(str(path)) == ds
    assert calls
