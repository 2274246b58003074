"""Text formats for datasets, game specs and policies.

Dataset format (UTF-8): a header line ``#confgame v1 H=<H> n=<n> ns=<|S|>
nu=<|U|>`` followed by one comma-separated row per (trajectory, step) with
fields ``traj,step,s,u,a,r_a,s_half,u_half,b,r_b``.  Each trajectory opens
with a ``init`` row carrying the opening bob action in the ``b`` column and
closes with a ``term`` row carrying the terminal state in the ``s`` column;
their other fields stay empty, and the reader rejects text in them.  Floats
are written with 17 significant digits so a round trip is exact.  The hidden
trace lives in a sibling file with suffix ``.hidden`` (header
``#confgame-hidden v1 ...``, rows
``traj,step,v1,v2,v1_half,v2_half``); the observed file has no column for it.
Both files are written in trajectory order by one routine, which takes each
step's run of integer fields (``s,u,a``, ``s_half,u_half,b`` and the hidden
``v1,v2,v1_half,v2_half``) from a table of their joined values when those
span at most n combinations.  They are read by one other routine, which
accepts the rows of either file in any order and skips blank lines: it parses
a block of lines at a time by columns, routes the rows of a dataset block in
the writer's layout by their positions and those of any other block by their
tags, reads a block that fails again line by line to name its first bad line,
and names the first (trajectory, step) that no row fills.

Spec and policy files are key-value texts: scalar lines ``name = value``
followed by array blocks ``[name] shape=d1,d2,...`` whose flattened values
(row-major) follow on whitespace-separated lines.
"""

from __future__ import annotations

import math
import os
import re
from itertools import chain, product

import numpy as np

from .errors import CorruptRow, MalformedDataset, SchemaMismatch
from .game import SPEC_TABLES, GameSpec, HiddenTrace, OfflineDataset, PolicyPair, check_dataset, check_dataset_shapes


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^#confgame v1 H=(\d+) n=(\d+) ns=(\d+) nu=(\d+)$")
_HIDDEN_HEADER_RE = re.compile(r"^#confgame-hidden v1 H=(\d+) n=(\d+)$")

# Both directions work a block at a time, which bounds the memory they hold:
# trajectories formatted per write, and the size hint in characters of the
# lines parsed per read.
_WRITE_BLOCK = 1024
_READ_BLOCK = 1 << 16

# the fields of a step row after (traj, step), and of a hidden row
_STEP_FIELDS = ("s", "u", "a", "r_a", "s_half", "u_half", "b", "r_b")
_ROW_FIELDS = ("traj", "step", *_STEP_FIELDS)
_HIDDEN_FIELDS = ("v1", "v2", "v1_half", "v2_half")
_STEP_DTYPE = np.dtype(
    [("traj", np.int64), ("step", np.int64)]
    + [(k, float if k.startswith("r_") else np.int64) for k in _STEP_FIELDS]
)
# an init or term row: its tag, wide enough that a longer one never reads as
# ``init`` or ``term``, its one integer field and the fields it leaves empty,
# one character each, so that any text reads as a code point other than 0
_INIT_DTYPE = np.dtype(
    [("traj", np.int64), ("tag", "U5"), ("_empty", "U1", (6,)), ("b_init", np.int64), ("_last", "U1")]
)
_TERM_DTYPE = np.dtype([("traj", np.int64), ("tag", "U5"), ("s_term", np.int64), ("_empty", "U1", (7,))])
_HIDDEN_DTYPE = np.dtype([(k, np.int64) for k in ("traj", "step", *_HIDDEN_FIELDS)])


def hidden_path(path: str) -> str:
    return f"{path}.hidden"


def write_dataset(ds: OfflineDataset, path: str) -> None:
    """Write ``ds`` to ``path`` and, if it carries one, its hidden trace to
    ``hidden_path(path)``; :class:`MalformedDataset` before anything is
    written for an array of the wrong shape (:func:`check_dataset_shapes`)."""
    check_dataset_shapes(ds, with_hidden=True)
    n, steps = ds.n, range(ds.horizon)
    template, columns = ["%d,init,,,,,,,%s,\n"], [None, ds.b_init]
    for h in steps:
        alice, alice_cols = _int_fields(n, ds.s[:, h], ds.u[:, h], ds.a[:, h])
        bob, bob_cols = _int_fields(n, ds.s_half[:, h], ds.u_half[:, h], ds.b[:, h])
        template.append(f"%d,{h + 1},{alice},%.17g,{bob},%.17g\n")
        columns += [None, *alice_cols, ds.r_a[:, h], *bob_cols, ds.r_b[:, h]]
    template.append("%d,term,%s,,,,,,,\n")
    columns += [None, ds.s_term]
    header = f"#confgame v1 H={ds.horizon} n={n} ns={ds.n_states} nu={ds.n_u}"
    _write_trajectories(path, header, "".join(template), columns, n)
    if ds.hidden is not None:
        template, columns = [], []
        for h in steps:
            fields, cols = _int_fields(n, *(getattr(ds.hidden, k)[:, h] for k in _HIDDEN_FIELDS))
            template.append(f"%d,{h + 1},{fields}\n")
            columns += [None, *cols]
        header = f"#confgame-hidden v1 H={ds.horizon} n={n}"
        _write_trajectories(hidden_path(path), header, "".join(template), columns, n)


def _int_fields(n: int, *cols: np.ndarray):
    """The ``%`` fields of a template and their columns that write ``cols``,
    arrays of length ``n``, as comma-separated fields: one ``%s`` filled by
    :class:`_Joined` when all are arrays of integers within int64 whose ranges
    span at most ``n`` combinations; otherwise one ``%s`` per column."""
    if n and all(col.dtype.kind in "iu" and np.can_cast(col.dtype, np.int64) for col in cols):
        low = [int(col.min()) for col in cols]
        dims = [int(col.max()) - lo + 1 for col, lo in zip(cols, low)]
        if math.prod(dims) <= n:
            return "%s", [_Joined(cols, low, dims)]
    return ",".join(["%s"] * len(cols)), list(cols)


class _Joined:
    """Integer columns as one column of their comma-joined values, each taken
    from a table of every combination in the columns' ranges, which ``str``
    of Python ints writes; looked up a slice of rows at a time, so that no
    column of strings as long as the data is held."""

    def __init__(self, cols: tuple, low: list, dims: list):
        self.cols, self.low, self.dims = cols, low, dims
        self.table = np.array(
            [",".join(map(str, values)) for values in product(*(range(lo, lo + d) for lo, d in zip(low, dims)))],
            dtype=object,
        )

    def __getitem__(self, rows: slice) -> np.ndarray:
        at = np.ravel_multi_index([col[rows].astype(np.int64) - lo for col, lo in zip(self.cols, self.low)], self.dims)
        return self.table[at]


def _write_trajectories(path: str, header: str, template: str, columns: list, n: int) -> None:
    """Write ``header``, then ``template`` once per trajectory, its ``%``
    fields filled from ``columns``: one array of length ``n`` per field (or
    a :class:`_Joined`, sliced as one), or ``None`` for the trajectory id.
    Integer fields are ``%s``, as ``str`` writes them, so that a column of
    another dtype is written as it is and the reader rejects it rather than
    reading a truncated value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, n)
            block = [range(lo, hi) if col is None else col[lo:hi].tolist() for col in columns]
            fh.write((template * (hi - lo)) % tuple(chain.from_iterable(zip(*block))))


def read_dataset(path: str, with_hidden: bool = False) -> OfflineDataset:
    """The dataset in ``path``: :class:`CorruptRow` for a row that does not
    parse, :class:`SchemaMismatch` for a file that disagrees with its header
    (field count, a trajectory or step outside it, a repeated or missing row)
    and :class:`~confgame.errors.MalformedDataset` for a value outside its
    space or a reward that is not finite (:func:`~confgame.game.check_dataset`),
    naming its line (:func:`_read_rows`)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        m = _HEADER_RE.match(header)
        if not m:
            raise SchemaMismatch(f"bad dataset header: {header!r}")
        horizon, n, ns, nu = (int(g) for g in m.groups())
        arrays = {k: np.zeros((n, horizon), dtype=_STEP_DTYPE[k]) for k in _STEP_FIELDS}
        b_init = np.zeros(n, dtype=np.int64)
        s_term = np.zeros(n, dtype=np.int64)
        tags = ["init", *range(1, horizon + 1), "term"]  # the row slots of a trajectory
        for init, term, steps in _read_rows(fh, "dataset", n, horizon, tags, _parse_observed, _check_observed):
            b_init[init["traj"]] = init["b_init"]
            s_term[term["traj"]] = term["s_term"]
            at = steps["traj"] * horizon + steps["step"] - 1
            for key, col in arrays.items():
                col.reshape(-1)[at] = steps[key]
    ds = OfflineDataset(horizon=horizon, n_states=ns, n_u=nu, b_init=b_init, s_term=s_term, **arrays)
    try:
        check_dataset(ds)
    except MalformedDataset as err:
        traj = err.index[0]
        step = {"b_init": "init", "s_term": "term"}.get(err.field) or str(err.index[1] + 1)
        where = f"line {_line_of(path, traj, step)}: field {err.field}, trajectory {traj}, step {step}"
        raise MalformedDataset(f"{where}: {err.detail}") from None
    if with_hidden and os.path.exists(hidden_path(path)):
        ds.hidden = _read_hidden(hidden_path(path), horizon, n)
    return ds


def _read_hidden(path: str, horizon: int, n: int) -> HiddenTrace:
    """Hidden trace of ``n`` trajectories of ``horizon`` steps: :class:`CorruptRow`
    for a row that does not parse, :class:`SchemaMismatch` for a (trajectory,
    step) outside the header, repeated or missing (:func:`_read_rows`)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        m = _HIDDEN_HEADER_RE.match(header)
        if not m or (int(m.group(1)), int(m.group(2))) != (horizon, n):
            raise SchemaMismatch(f"hidden-trace header disagrees: {header!r}")
        arrays = {k: np.zeros((n, horizon), dtype=np.int64) for k in _HIDDEN_FIELDS}
        for rows in _read_rows(fh, "hidden trace", n, horizon, range(1, horizon + 1), _parse_hidden, _check_hidden):
            at = rows["traj"] * horizon + rows["step"] - 1
            for key, col in arrays.items():
                col.reshape(-1)[at] = rows[key]
    return HiddenTrace(**arrays)


def _read_rows(fh, what: str, n: int, horizon: int, tags, parse, check):
    """The rows of the rest of ``fh``, the body of a ``what`` file, parsed by
    columns a block of about ``_READ_BLOCK`` characters at a time.

    ``parse(lines, horizon)`` gives the rows of a block's non-blank lines and
    their (trajectory, slot)s, where ``tags[slot]`` names the slot's step; it
    raises ValueError or IndexError for a line that does not parse.  Only a
    block that fails, or whose slots :func:`_claim` refuses, is read again
    line by line, to raise the error of its first bad line:
    ``check(parts, line, lineno, n, horizon)`` gives the (trajectory, slot,
    step) of one row split into ``parts``, or raises its error (ValueError
    for a field that does not parse).  Once the body is read, a (trajectory,
    slot) that no row filled raises :class:`SchemaMismatch` naming it."""
    seen = np.zeros((n, len(tags)), dtype=bool)
    first = 2  # the header is line 1
    while block := fh.readlines(_READ_BLOCK):
        try:
            lines = [line for line in block if line != "\n"] if "\n" in block else block
            rows, traj, slot = parse(lines, horizon)
        except (ValueError, IndexError):
            rows = None
        if rows is None or not _claim(seen, traj, slot):
            for lineno, line in enumerate(block, start=first):
                if line == "\n":
                    continue
                try:
                    traj, slot, step = check(line.rstrip("\n").split(","), line, lineno, n, horizon)
                except ValueError as exc:
                    raise CorruptRow(lineno, f"unparseable field: {exc}") from exc
                if seen[traj, slot]:
                    raise SchemaMismatch(f"line {lineno}: duplicate (trajectory, step) ({traj}, {step})")
                seen[traj, slot] = True
            raise CorruptRow(first, f"lines {first}-{first + len(block) - 1} do not parse")
        yield rows
        first += len(block)
    if not seen.all():
        traj, slot = np.argwhere(~seen)[0]
        raise SchemaMismatch(f"{what} misses (trajectory, step) ({traj}, {tags[slot]})")


def _parse_csv(lines: list, dtype: np.dtype) -> np.ndarray:
    """``lines`` parsed into a structured array of ``dtype``, one record per
    line; ValueError for a field that does not parse or a line whose field
    count is not the dtype's."""
    if not lines:  # numpy's reader warns on no data
        return np.zeros(0, dtype=dtype)
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _parse_observed(lines: list, horizon: int):
    """The ``init``, ``term`` and step rows of the non-blank dataset
    ``lines`` and their (trajectory, slot)s: slot 0 for ``init``, the step
    for a step row and H + 1 for ``term``; ValueError or IndexError for a
    line that does not parse, a step outside 1..H or an ``init`` or ``term``
    row with text in a field it leaves empty.  Lines in the writer's layout
    are routed by position (:func:`_parse_placed`), any others by their tags
    (:func:`_parse_tagged`).  Lines that hold a NUL are refused, since a
    string field drops trailing NULs and would read ``init\\0`` as ``init``."""
    if "\0" in "".join(lines):
        raise ValueError("a line holds a NUL")
    try:
        rows = _parse_placed(lines, horizon)
    except (ValueError, IndexError):
        rows = None
    init, term, steps = rows or _parse_tagged(lines, horizon)
    for table in (init, term):
        if any(table[name].view(np.uint32).any() for name in table.dtype.names if name.startswith("_")):
            raise ValueError("text in a field that an init or term row leaves empty")
    traj = np.concatenate([init["traj"], steps["traj"], term["traj"]])
    slot = np.concatenate([np.zeros(len(init), np.int64), steps["step"], np.full(len(term), horizon + 1)])
    return (init, term, steps), traj, slot


def _parse_placed(lines: list, horizon: int):
    """The ``init``, ``term`` and step rows of ``lines`` whose slots follow
    each other as the writer lays them out, starting from the slot that the
    first line's tag names: ``None`` if a row's tag or step is not its
    position's."""
    width = horizon + 2
    tag = lines[0].split(",", 2)[1]
    first = 0 if tag == "init" else width - 1 if tag == "term" else int(tag)
    at = [lines[(slot - first) % width :: width] for slot in range(width)]  # the lines of each slot
    init = _parse_csv(at[0], _INIT_DTYPE)
    term = _parse_csv(at[-1], _TERM_DTYPE)
    if (init["tag"] != "init").any() or (term["tag"] != "term").any():
        return None
    steps = _parse_csv(list(chain.from_iterable(at[1:-1])), _STEP_DTYPE)
    if (steps["step"] != np.repeat(np.arange(1, horizon + 1), [len(x) for x in at[1:-1]])).any():
        return None
    return init, term, steps


def _parse_tagged(lines: list, horizon: int):
    """The ``init``, ``term`` and step rows of ``lines`` in any order, routed
    by the tag in field 2; ValueError for a step outside 1..H."""
    tags = [line.split(",", 2)[1] for line in lines]
    init = _parse_csv([line for line, tag in zip(lines, tags) if tag == "init"], _INIT_DTYPE)
    term = _parse_csv([line for line, tag in zip(lines, tags) if tag == "term"], _TERM_DTYPE)
    steps = _parse_csv([line for line, tag in zip(lines, tags) if tag != "init" and tag != "term"], _STEP_DTYPE)
    if not _within(steps["step"] - 1, horizon):
        raise ValueError("a step outside the header's horizon")
    return init, term, steps


def _check_observed(parts: list, line: str, lineno: int, n: int, horizon: int):
    """The (trajectory, slot, step tag) of the dataset row ``line``, split
    into ``parts``, for :func:`_read_rows`."""
    if len(parts) != 10:
        raise CorruptRow(lineno, f"expected 10 fields, got {len(parts)}")
    try:
        traj = int(parts[0])
    except ValueError as exc:
        raise CorruptRow(lineno, f"bad trajectory id {parts[0]!r}") from exc
    if not 0 <= traj < n:
        raise SchemaMismatch(f"line {lineno}: trajectory id {traj} outside header n={n}")
    tag = parts[1]
    if tag in ("init", "term"):
        slot, used = (0, 8) if tag == "init" else (horizon + 1, 2)
        int(parts[used])
        for col, text in enumerate(parts[2:], start=2):
            if text and col != used:
                raise CorruptRow(lineno, f"{tag} row holds {text!r} in field {_ROW_FIELDS[col]}, which must be empty")
    else:
        slot = int(tag)
        if not 1 <= slot <= horizon:
            raise SchemaMismatch(f"line {lineno}: step {tag} outside header horizon H={horizon}")
        for col in (2, 3, 4, 6, 7, 8):
            int(parts[col])
        float(parts[5])
        float(parts[9])
    _parse_tagged([line], horizon)  # what Python's int and float accept but the block parser does not
    return traj, slot, tag


def _parse_hidden(lines: list, horizon: int):
    """The rows of the non-blank hidden-trace ``lines`` and their
    (trajectory, slot)s, slot h - 1 for step h; ValueError for a line that
    does not parse."""
    rows = _parse_csv(lines, _HIDDEN_DTYPE)
    return rows, rows["traj"], rows["step"] - 1


def _check_hidden(parts: list, line: str, lineno: int, n: int, horizon: int):
    """The (trajectory, slot, step) of the hidden-trace row ``line``, split
    into ``parts``, for :func:`_read_rows`."""
    if len(parts) != 6:
        raise CorruptRow(lineno, f"expected 6 fields, got {len(parts)}")
    traj, step, *_ = (int(x) for x in parts)
    _parse_hidden([line], horizon)  # what Python's int accepts but the block parser does not
    if not (0 <= traj < n and 1 <= step <= horizon):
        raise SchemaMismatch(f"line {lineno}: (trajectory, step) ({traj}, {step}) outside header n={n}, H={horizon}")
    return traj, step - 1, step


def _within(values: np.ndarray, size: int) -> bool:
    return values.size == 0 or (values.min() >= 0 and values.max() < size)


def _claim(seen: np.ndarray, traj: np.ndarray, slot: np.ndarray) -> bool:
    """Mark the row slots ``(traj, slot)`` of one block in ``seen``, a mask of
    shape (n, slots per trajectory); False, marking nothing, if one lies
    outside it, repeats within the block or was marked before."""
    n, width = seen.shape
    if not (_within(traj, n) and _within(slot, width)):
        return False
    flat = traj * width + slot
    mask = seen.reshape(-1)
    ordered = np.sort(flat)
    if mask[flat].any() or (ordered[1:] == ordered[:-1]).any():
        return False
    mask[flat] = True
    return True


def _line_of(path: str, traj: int, step: str) -> int:
    """Line of the row of trajectory ``traj`` whose step column reads ``step``
    (``init``, ``term`` or a step number) in a dataset file that
    :func:`read_dataset` has parsed."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # the header
        for lineno, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            traj_id, tag = raw.split(",")[:2]
            if (int(traj_id), tag if tag in ("init", "term") else str(int(tag))) == (traj, step):
                return lineno


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


def write_spec(spec: GameSpec, path: str) -> None:
    scalars = {
        "horizon": spec.horizon,
        "n_states": spec.n_states,
        "n_u": spec.n_u,
        "n_v1": spec.n_v1,
        "n_v2": spec.n_v2,
        "reward_noise": _fmt(spec.reward_noise),
    }
    arrays = {name: getattr(spec, name) for name in SPEC_TABLES}
    arrays["state_values"] = spec.state_values
    _write_blocks(path, SPEC_MAGIC, scalars, arrays)


def _scalar(scalars: dict, key: str, kind: type):
    """Scalar ``key`` of a spec or policy file as ``kind``: KeyError if it is
    missing, :class:`SchemaMismatch` naming it if it does not parse."""
    text = scalars[key]
    try:
        return kind(text)
    except ValueError:
        raise SchemaMismatch(f"scalar {key} = {text!r} does not parse as {kind.__name__}") from None


def read_spec(path: str) -> GameSpec:
    scalars, arrays = _read_blocks(path, SPEC_MAGIC)
    try:
        kwargs = {key: _scalar(scalars, key, int) for key in ("horizon", "n_states", "n_u", "n_v1", "n_v2")}
        kwargs.update((name, arrays[name]) for name in SPEC_TABLES)
    except KeyError as exc:
        raise SchemaMismatch(f"spec file misses {exc}") from exc
    if "reward_noise" in scalars:
        kwargs["reward_noise"] = _scalar(scalars, "reward_noise", float)
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
    """The policy pair in ``path``: :class:`SchemaMismatch` for a missing or
    unparseable entry, a block of the wrong rank or a ``horizon`` that
    disagrees with the blocks' leading axis."""
    scalars, arrays = _read_blocks(path, POLICY_MAGIC)
    try:
        alice, bob = arrays["alice"], arrays["bob"]
        init_bob = _scalar(scalars, "init_bob", float)
    except KeyError as exc:
        raise SchemaMismatch(f"policy file misses {exc}") from exc
    horizon = _scalar(scalars, "horizon", int) if "horizon" in scalars else None
    for name, arr, axes in (("alice", alice, "[step, s, u, b_prev]"), ("bob", bob, "[step, s, a_prev]")):
        if arr.ndim != axes.count(",") + 1:
            raise SchemaMismatch(f"policy block [{name}] has shape {arr.shape}; it must be indexed {axes}")
        if horizon is not None and arr.shape[0] != horizon:
            raise SchemaMismatch(f"policy horizon = {horizon} disagrees with block [{name}] of shape {arr.shape}")
    return PolicyPair(alice=alice, bob=bob, init_bob=init_bob)


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
