import numpy as np
import pytest

from confgame import game, gameio
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


def test_policy_round_trip(tmp_path, t2):
    pair = game.constant_policy_pair(t2, 0.25, 0.75, 1.0)
    path = tmp_path / "p.policy"
    gameio.write_policy(pair, str(path))
    back = gameio.read_policy(str(path))
    assert np.array_equal(back.alice, pair.alice)
    assert np.array_equal(back.bob, pair.bob)
    assert back.init_bob == pair.init_bob


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
    "col, value, message",
    [
        (2, "5", "field s, row 1, step 0: value 5 is not in 0..1"),
        (5, "nan", "field r_a, row 1, step 0: value nan is not finite"),
    ],
)
def test_dataset_rejects_values_outside_their_space(tmp_path, t2, col, value, message):
    ds = game.simulate_dataset(t2, n=3, seed=0)
    path = tmp_path / "d.csv"
    gameio.write_dataset(ds, str(path))
    lines = path.read_text().splitlines()
    row = lines[6].split(",")  # trajectory 1, step 1
    assert row[:2] == ["1", "1"]
    row[col] = value
    lines[6] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedDataset, match=f"^{message}$"):
        gameio.read_dataset(str(path))
