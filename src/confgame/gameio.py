"""Text formats for datasets, game specs and policies.

Dataset format (UTF-8): a header line ``#confgame v1 H=<H> n=<n> ns=<|S|>
nu=<|U|>`` followed by one comma-separated row per (trajectory, step) with
fields ``traj,step,s,u,a,r_a,s_half,u_half,b,r_b``.  Each trajectory opens
with a ``init`` row carrying the opening bob action in the ``b`` column and
closes with a ``term`` row carrying the terminal state in the ``s`` column;
unused fields stay empty.  Floats are written with 17 significant digits so a
round trip is exact.  The hidden trace lives in a sibling file with suffix
``.hidden`` (header ``#confgame-hidden v1 ...``, rows
``traj,step,v1,v2,v1_half,v2_half``); the observed file has no column for it.

Spec and policy files are key-value texts: scalar lines ``name = value``
followed by array blocks ``[name] shape=d1,d2,...`` whose flattened values
(row-major) follow on whitespace-separated lines.
"""

from __future__ import annotations

import os
import re
import numpy as np

from .errors import CorruptRow, SchemaMismatch
from .game import GameSpec, HiddenTrace, OfflineDataset, PolicyPair, check_dataset


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^#confgame v1 H=(\d+) n=(\d+) ns=(\d+) nu=(\d+)$")
_HIDDEN_HEADER_RE = re.compile(r"^#confgame-hidden v1 H=(\d+) n=(\d+)$")


def hidden_path(path: str) -> str:
    return f"{path}.hidden"


def write_dataset(ds: OfflineDataset, path: str) -> None:
    lines = [f"#confgame v1 H={ds.horizon} n={ds.n} ns={ds.n_states} nu={ds.n_u}"]
    for i in range(ds.n):
        lines.append(f"{i},init,,,,,,,{ds.b_init[i]},")
        for h in range(ds.horizon):
            lines.append(
                f"{i},{h + 1},{ds.s[i, h]},{ds.u[i, h]},{ds.a[i, h]},{_fmt(ds.r_a[i, h])},"
                f"{ds.s_half[i, h]},{ds.u_half[i, h]},{ds.b[i, h]},{_fmt(ds.r_b[i, h])}"
            )
        lines.append(f"{i},term,{ds.s_term[i]},,,,,,,")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if ds.hidden is not None:
        hl = [f"#confgame-hidden v1 H={ds.horizon} n={ds.n}"]
        for i in range(ds.n):
            for h in range(ds.horizon):
                hl.append(
                    f"{i},{h + 1},{ds.hidden.v1[i, h]},{ds.hidden.v2[i, h]},"
                    f"{ds.hidden.v1_half[i, h]},{ds.hidden.v2_half[i, h]}"
                )
        with open(hidden_path(path), "w", encoding="utf-8") as fh:
            fh.write("\n".join(hl) + "\n")


def read_dataset(path: str, with_hidden: bool = False) -> OfflineDataset:
    """The dataset in ``path``: :class:`CorruptRow` for a row that does not
    parse, :class:`SchemaMismatch` for a file that disagrees with its header
    (field count, a step outside it, a repeated or missing row) and
    :class:`~confgame.errors.MalformedDataset` for a value outside its space
    or a reward that is not finite (:func:`~confgame.game.check_dataset`)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        m = _HEADER_RE.match(header)
        if not m:
            raise SchemaMismatch(f"bad dataset header: {header!r}")
        horizon, n, ns, nu = (int(g) for g in m.groups())
        shape = (n, horizon)
        arrays = {
            k: np.zeros(shape, dtype=np.int64)
            for k in ("s", "u", "a", "s_half", "u_half", "b")
        }
        arrays.update({k: np.zeros(shape, dtype=float) for k in ("r_a", "r_b")})
        b_init = np.zeros(n, dtype=np.int64)
        s_term = np.zeros(n, dtype=np.int64)
        seen = set()  # row slots: trajectory + n * (0 for init, 1 for term, 1 + step)
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 10:
                raise CorruptRow(lineno, f"expected 10 fields, got {len(parts)}")
            try:
                traj = int(parts[0])
            except ValueError as exc:
                raise CorruptRow(lineno, f"bad trajectory id {parts[0]!r}") from exc
            if not 0 <= traj < n:
                raise SchemaMismatch(f"trajectory id {traj} outside header n={n}")
            tag = parts[1]
            try:
                if tag == "init":
                    slot = traj
                    b_init[traj] = int(parts[8])
                elif tag == "term":
                    slot = n + traj
                    s_term[traj] = int(parts[2])
                else:
                    h = int(tag) - 1
                    if not 0 <= h < horizon:
                        raise SchemaMismatch(
                            f"step {tag} outside header horizon H={horizon}"
                        )
                    slot = (2 + h) * n + traj
                    for col, key in (
                        (2, "s"),
                        (3, "u"),
                        (4, "a"),
                        (6, "s_half"),
                        (7, "u_half"),
                        (8, "b"),
                    ):
                        arrays[key][traj, h] = int(parts[col])
                    arrays["r_a"][traj, h] = float(parts[5])
                    arrays["r_b"][traj, h] = float(parts[9])
            except SchemaMismatch:
                raise
            except ValueError as exc:
                raise CorruptRow(lineno, f"unparseable field: {exc}") from exc
            if slot in seen:
                raise SchemaMismatch(f"line {lineno}: duplicate (trajectory, step) ({traj}, {tag})")
            seen.add(slot)
    if len(seen) < n * (horizon + 2):
        raise SchemaMismatch("dataset body does not cover every (trajectory, step)")
    ds = OfflineDataset(horizon=horizon, n_states=ns, n_u=nu, b_init=b_init, s_term=s_term, **arrays)
    check_dataset(ds)
    if with_hidden and os.path.exists(hidden_path(path)):
        ds.hidden = _read_hidden(hidden_path(path), horizon, n)
    return ds


def _read_hidden(path: str, horizon: int, n: int) -> HiddenTrace:
    """Hidden trace of ``n`` trajectories of ``horizon`` steps: :class:`CorruptRow`
    for a row that does not parse, :class:`SchemaMismatch` for a (trajectory,
    step) outside the header, repeated or missing."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        m = _HIDDEN_HEADER_RE.match(header)
        if not m or (int(m.group(1)), int(m.group(2))) != (horizon, n):
            raise SchemaMismatch(f"hidden-trace header disagrees: {header!r}")
        arrays = {
            k: np.zeros((n, horizon), dtype=np.int64)
            for k in ("v1", "v2", "v1_half", "v2_half")
        }
        seen = np.zeros((n, horizon), dtype=bool)
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise CorruptRow(lineno, f"expected 6 fields, got {len(parts)}")
            try:
                traj, step, *values = (int(x) for x in parts)
            except ValueError as exc:
                raise CorruptRow(lineno, f"unparseable field: {exc}") from exc
            if not (0 <= traj < n and 1 <= step <= horizon):
                raise SchemaMismatch(
                    f"line {lineno}: (trajectory, step) ({traj}, {step}) outside header n={n}, H={horizon}"
                )
            if seen[traj, step - 1]:
                raise SchemaMismatch(f"line {lineno}: duplicate (trajectory, step) ({traj}, {step})")
            seen[traj, step - 1] = True
            for key, value in zip(("v1", "v2", "v1_half", "v2_half"), values):
                arrays[key][traj, step - 1] = value
    if not seen.all():
        traj, h = np.argwhere(~seen)[0]
        raise SchemaMismatch(f"hidden trace misses (trajectory, step) ({traj}, {h + 1})")
    return HiddenTrace(**arrays)


# ---------------------------------------------------------------------------
# key-value array files (specs and policies)
# ---------------------------------------------------------------------------


def _write_blocks(path: str, magic: str, scalars: dict, arrays: dict) -> None:
    lines = [magic]
    for k, v in scalars.items():
        lines.append(f"{k} = {v}")
    for name, arr in arrays.items():
        if arr is None:
            continue
        arr = np.asarray(arr)
        shape = ",".join(str(d) for d in arr.shape)
        lines.append(f"[{name}] shape={shape}")
        flat = arr.ravel()
        for i in range(0, flat.size, 8):
            lines.append(" ".join(_fmt(float(x)) for x in flat[i : i + 8]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_blocks(path: str, magic: str):
    scalars, arrays = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != magic:
            raise SchemaMismatch(f"expected header {magic!r}, got {header!r}")
        name, shape, buf = None, None, []

        def flush():
            if name is None:
                return
            flat = np.array(buf, dtype=float)
            if flat.size != int(np.prod(shape)):
                raise SchemaMismatch(
                    f"array {name!r}: {flat.size} values for shape {shape}"
                )
            arrays[name] = flat.reshape(shape)

        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("["):
                flush()
                m = re.match(r"^\[(\w+)\] shape=([\d,]*)$", line)
                if not m:
                    raise CorruptRow(lineno, f"bad array header {line!r}")
                name = m.group(1)
                shape = tuple(int(x) for x in m.group(2).split(",") if x)
                buf = []
            elif "=" in line and name is None:
                k, _, v = line.partition("=")
                scalars[k.strip()] = v.strip()
            else:
                try:
                    buf.extend(float(x) for x in line.split())
                except ValueError as exc:
                    raise CorruptRow(lineno, f"bad numeric line: {exc}") from exc
        flush()
    return scalars, arrays


SPEC_MAGIC = "#confgame-spec v1"
POLICY_MAGIC = "#confgame-policy v1"

_SPEC_ARRAYS = (
    "init_state",
    "u_law",
    "v1_law",
    "v2_law",
    "alice_act_base",
    "alice_act_iv",
    "bob_act_base",
    "bob_act_iv",
    "alice_rew_act",
    "alice_rew_iv",
    "alice_rew_inter",
    "alice_rew_resid",
    "bob_rew_act",
    "bob_rew_iv",
    "bob_rew_inter",
    "bob_rew_resid",
    "trans",
)


def write_spec(spec: GameSpec, path: str) -> None:
    scalars = {
        "horizon": spec.horizon,
        "n_states": spec.n_states,
        "n_u": spec.n_u,
        "n_v1": spec.n_v1,
        "n_v2": spec.n_v2,
        "reward_noise": _fmt(spec.reward_noise),
    }
    arrays = {name: getattr(spec, name) for name in _SPEC_ARRAYS}
    arrays["state_values"] = spec.state_values
    _write_blocks(path, SPEC_MAGIC, scalars, arrays)


def read_spec(path: str) -> GameSpec:
    scalars, arrays = _read_blocks(path, SPEC_MAGIC)
    try:
        kwargs = {
            "horizon": int(scalars["horizon"]),
            "n_states": int(scalars["n_states"]),
            "n_u": int(scalars["n_u"]),
            "n_v1": int(scalars["n_v1"]),
            "n_v2": int(scalars["n_v2"]),
            "reward_noise": float(scalars.get("reward_noise", 0.1)),
        }
        for name in _SPEC_ARRAYS:
            kwargs[name] = arrays[name]
    except KeyError as exc:
        raise SchemaMismatch(f"spec file misses {exc}") from exc
    if "state_values" in arrays:
        kwargs["state_values"] = arrays["state_values"]
    return GameSpec(**kwargs)


def write_policy(pair: PolicyPair, path: str) -> None:
    _write_blocks(
        path,
        POLICY_MAGIC,
        {"horizon": pair.horizon, "init_bob": _fmt(pair.init_bob)},
        {"alice": pair.alice, "bob": pair.bob},
    )


def read_policy(path: str) -> PolicyPair:
    scalars, arrays = _read_blocks(path, POLICY_MAGIC)
    try:
        return PolicyPair(
            alice=arrays["alice"], bob=arrays["bob"], init_bob=float(scalars["init_bob"])
        )
    except KeyError as exc:
        raise SchemaMismatch(f"policy file misses {exc}") from exc


def export_policy_csv(pair: PolicyPair, path: str) -> None:
    """Learned-pair export: one row per decision cell."""
    lines = ["step,player,s,u,prev_action,action"]
    h_tot, ns, nu = pair.alice.shape[0], pair.alice.shape[1], pair.alice.shape[2]
    lines.append(f"0.5,bob,,,,{_fmt(pair.init_bob)}")
    for h in range(h_tot):
        for s in range(ns):
            for u in range(nu):
                for prev in range(2):
                    lines.append(
                        f"{h + 1},alice,{s},{u},{prev},{_fmt(pair.alice[h, s, u, prev])}"
                    )
            for prev in range(2):
                lines.append(
                    f"{h + 1.5},bob,{s},,{prev},{_fmt(pair.bob[h, s, prev])}"
                )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
