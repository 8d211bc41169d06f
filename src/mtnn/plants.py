"""Synthetic thermal plants, excitation signals, `Transitions` data sets,
and the one CSV format that mtnn reads and writes.

Two ground-truth simulators with known monotone structure:

  * HvacPlant: one room temperature driven by supply air and ambient loss,
      T' = T + (dt/C) (mdot c_p (Ts - T) + k_a (T_amb - T)).
    Bilinear in (mdot, T) and (mdot, Ts), so the true update has a constant
    nonzero mixed Hessian; a second-order predictor has something real to
    learn here.
  * TcLabPlant: two heater/sensor pairs with ambient loss and symmetric
    cross-coupling,
      T1' = T1 + dt (alpha1 Q1 + k_loss (T_amb - T1) + k_couple (T2 - T1)).

Both audit their monotone structure at construction from the analytic
partials, so a bad parameter set fails fast instead of silently breaking the
sign priors the models train against.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .constraints import MonoSpec

Array = np.ndarray


def finite(v) -> bool:
    """Whether `v` is a real number, not a bool, and finite as a float. An
    int too large for a float is not; np.isfinite would raise TypeError on it."""
    if isinstance(v, np.floating):  # as a float64: a float32 would overflow the max
        return bool(abs(v) <= np.float64(sys.float_info.max))
    return isinstance(v, Real) and not isinstance(v, bool) and bool(abs(v) <= sys.float_info.max)


def integer(v, name: str, least: int) -> int:
    """`v` as an int >= `least`, the one rule for a count or seed from
    outside: a finite, integral real that is not a bool, so an integral float
    such as 3.0 is accepted, and a string, a bool or an int too large for a
    float is not. Anything else is a ValueError naming `name`."""
    if not (finite(v) and v >= least and v == int(v)):
        raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
    return int(v)


def real(v, name: str, positive: bool = False) -> float:
    """`v` as a float, the one rule for a real-valued setting from outside: a
    finite real that is not a bool, >= 0, or > 0 when `positive`. Anything
    else is a ValueError naming `name`."""
    if not (finite(v) and (v > 0 if positive else v >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be a finite real number {bound}, got {v!r}")
    return float(v)


def reals(v, name: str, size: int | None = None, allow_inf: bool = False) -> Array:
    """`v`, a number or a nested list or array of numbers, as a fresh float64
    array of its shape, or flattened to `size` numbers: the one rule for
    numbers from outside. Each entry, checked before any conversion so that a
    string is not read as its number, must be a float or a `finite` real, not
    NaN, and infinite only with `allow_inf`. Anything else is a ValueError
    naming `name` and showing the first bad entry."""
    try:
        a = np.asarray(v, dtype=object)
    except ValueError:  # numpy's own message for nested arrays of unequal shapes
        raise ValueError(f"{name} must hold only finite real numbers, "
                         "got arrays of unequal shapes") from None
    if size is not None:
        a = a.reshape(-1)
    for x in a.flat:
        if not (finite(x) or allow_inf and isinstance(x, (float, np.floating)) and not np.isnan(x)):
            rule = "real numbers or infinities" if allow_inf else "finite real numbers"
            raise ValueError(f"{name} must hold only {rule}, got {x!r}")
    if size is not None and a.size != size:
        raise ValueError(f"{name} must hold {size} numbers, got {a.size}")
    return a.astype(np.float64)


def _check_fields(plant, positive) -> None:
    """Every field of `plant` is a finite real; those named in `positive` are > 0."""
    for f in fields(plant):
        v, name = getattr(plant, f.name), f"{type(plant).__name__}.{f.name}"
        if not finite(v):
            raise ValueError(f"{name} must be a finite real number, got {v!r}")
        if f.name in positive and not v > 0:
            raise ValueError(f"{name} must be > 0, got {v!r}")


@dataclass
class HvacPlant:
    """Room heat balance; the defaults are `hvac_benchmark`'s hot-ambient room."""

    C: float = 500.0  # kJ/degF
    c_p: float = 1.0  # kJ/(kg degF)
    k_a: float = 0.2  # kW/degF
    T_amb: float = 85.0  # degF
    dt: float = 300.0  # s
    mdot_max: float = 1.0  # kg/s, audited operating range

    nx = 1
    nu = 2
    columns = (("T",), ("Ts", "mdot"))  # CSV names of the states and the inputs

    def __post_init__(self):
        _check_fields(self, positive=("C", "c_p", "dt", "mdot_max"))
        if self.k_a < 0:
            raise ValueError(f"HvacPlant.k_a must be >= 0, got {self.k_a!r}")
        # monotone audit over the declared flow range: dT'/dT >= 0 needs
        # (dt/C)(mdot c_p + k_a) <= 1, worst at mdot_max; dT'/dTs >= 0 always
        for m in np.linspace(0.0, self.mdot_max, 101):
            if 1.0 - (self.dt / self.C) * (m * self.c_p + self.k_a) < 0:
                raise ValueError(
                    f"update not increasing in T at mdot={m:.3f}; "
                    "reduce dt or mdot_max"
                )

    def step(self, x, u):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        T = x[..., 0]
        Ts, mdot = u[..., 0], u[..., 1]
        if np.any((mdot < 0) | (mdot > self.mdot_max)):
            raise ValueError(f"mdot must lie in [0, mdot_max = {self.mdot_max}] kg/s")
        gain = self.dt / self.C
        nxt = T + gain * (mdot * self.c_p * (Ts - T) + self.k_a * (self.T_amb - T))
        return np.stack([nxt], axis=-1)

    def mono_spec(self) -> MonoSpec:
        """Sign prior for z = (T, Ts, mdot) in the cooling regime (Ts < T)."""
        return MonoSpec.from_symbols(["++-"])


@dataclass
class TcLabPlant:
    alpha1: float = 0.0065  # degC/s per % power
    alpha2: float = 0.0065
    k_loss: float = 0.008  # 1/s
    k_couple: float = 0.003  # 1/s
    T_amb: float = 23.0  # degC
    dt: float = 15.0  # s

    nx = 2
    nu = 2
    columns = (("T1", "T2"), ("Q1", "Q2"))

    def __post_init__(self):
        _check_fields(self, positive=("dt",))
        if min(self.alpha1, self.alpha2, self.k_loss, self.k_couple) < 0:
            raise ValueError("coefficients must be nonnegative")
        # own-temperature partial 1 - dt (k_loss + k_couple) must stay >= 0
        if 1.0 - self.dt * (self.k_loss + self.k_couple) < 0:
            raise ValueError("dt too large for the loss/coupling rates")

    def step(self, x, u):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        T1, T2 = x[..., 0], x[..., 1]
        Q1, Q2 = u[..., 0], u[..., 1]
        if np.any((Q1 < 0) | (Q1 > 100) | (Q2 < 0) | (Q2 > 100)):
            raise ValueError("heater powers must lie in [0, 100] %")
        d1 = self.alpha1 * Q1 + self.k_loss * (self.T_amb - T1) + self.k_couple * (T2 - T1)
        d2 = self.alpha2 * Q2 + self.k_loss * (self.T_amb - T2) + self.k_couple * (T1 - T2)
        return np.stack([T1 + self.dt * d1, T2 + self.dt * d2], axis=-1)

    def mono_spec(self) -> MonoSpec:
        """Sign prior for z = (T1, T2, Q1, Q2); the other heater has no
        same-step effect, left untagged."""
        return MonoSpec.from_symbols(["+++.", "++.+"])


@dataclass
class Series:
    """A uniformly sampled trajectory: t (n,), x (n, Nx), u (n, Nu)."""

    t: Array
    x: Array
    u: Array

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.u = np.atleast_2d(np.asarray(self.u, dtype=np.float64))
        if self.x.shape[0] != len(self.t) or self.u.shape[0] != len(self.t):
            raise ValueError("t, x, u lengths disagree")

    def __len__(self) -> int:
        return len(self.t)


Transition = namedtuple("Transition", "z_prev z_curr x_next")


@dataclass(eq=False)
class Transitions:
    """Samples (z_prev, z_curr, x_next) of consecutive steps as read-only,
    C-contiguous float64 arrays, z_prev and z_curr (n, N) and x_next (n, Nx),
    n >= 1; `data[a:b]` is a `Transitions`, `data[i]` a `Transition` of 1-D
    arrays. C order makes training read the same values in the same order
    whatever the caller's layout; a C-ordered array is not copied."""

    z_prev: Array
    z_curr: Array
    x_next: Array

    def __post_init__(self):
        names = ("z_prev", "z_curr", "x_next")
        zp, zc, xn = (np.asarray(getattr(self, name), dtype=np.float64) for name in names)
        if not (zp.ndim == zc.ndim == xn.ndim == 2 and zp.shape == zc.shape
                and len(xn) == len(zp) > 0):
            raise ValueError("transitions need z_prev, z_curr (n, N) and x_next (n, Nx) "
                             f"with n >= 1; got {zp.shape}, {zc.shape}, {xn.shape}")
        for name, a in zip(names, (zp, zc, xn)):
            a = np.ascontiguousarray(a).view()
            a.flags.writeable = False  # on a view, so a caller's array keeps its flags
            setattr(self, name, a)

    def __len__(self) -> int:
        return len(self.z_prev)

    def __getitem__(self, key):
        row = Transition if isinstance(key, (int, np.integer)) else Transitions
        return row(self.z_prev[key], self.z_curr[key], self.x_next[key])


@dataclass
class ExcitePolicy:
    """Piecewise-constant random excitation: levels U[lo, hi] per channel,
    held for a dwell drawn from dwell_choices (in samples). The bounds are
    arrays of finite numbers under `reals`; `excite` requires one per input
    of its plant."""

    lo: Array
    hi: Array
    dwell_choices: tuple = (8, 10)
    noise_sigma: float = 0.0  # additive on the emitted states only

    def __post_init__(self):
        self.lo, self.hi = reals(self.lo, "lo"), reals(self.hi, "hi")
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ValueError("need lo <= hi per channel")
        if not self.dwell_choices:
            raise ValueError("dwell_choices must not be empty")
        self.dwell_choices = tuple(integer(d, f"dwell_choices[{i}]", 1)
                                   for i, d in enumerate(self.dwell_choices))
        real(self.noise_sigma, "noise_sigma")


def excite(plant, policy: ExcitePolicy, n: int, seed: int, x0) -> Series:
    """Roll the plant under the policy for n samples, deterministically; n
    must be an integer >= 3, enough for one transition, x0 the plant's nx
    states and the policy's bounds its nu inputs, each under `reals`."""
    n = integer(n, "n", 3)
    x0 = reals(x0, "x0", plant.nx)
    lo, hi = reals(policy.lo, "lo", plant.nu), reals(policy.hi, "hi", plant.nu)
    rng = np.random.default_rng(seed)
    x = np.empty((n, plant.nx))
    u = np.empty((n, plant.nu))
    x[0] = x0
    level = rng.uniform(lo, hi)
    remaining = int(rng.choice(policy.dwell_choices))
    for k in range(n):
        if remaining == 0:
            level = rng.uniform(lo, hi)
            remaining = int(rng.choice(policy.dwell_choices))
        u[k] = level
        remaining -= 1
        if k + 1 < n:
            x[k + 1] = plant.step(x[k], u[k])
    if policy.noise_sigma > 0:
        x = x + rng.normal(0.0, policy.noise_sigma, size=x.shape)
    t = np.arange(n, dtype=np.float64) * plant.dt
    return Series(t, x, u)


def to_transitions(series: Series) -> Transitions:
    """Sliding window of consecutive triples, len(series) - 2 of them."""
    n = len(series)
    if n < 3:
        raise ValueError(f"series of length {n} has no (prev, curr, next) triple")
    z = np.concatenate([series.x, series.u], axis=1)
    return Transitions(z[:-2], z[1:-1], z[2:, : series.x.shape[1]])


def _split_length(n_train: int, n_test: int) -> tuple:
    """(n_train, n_test, n): both split sizes as ints >= 1 under `integer`,
    and the n = n_train + n_test + 2 samples a series needs to yield them."""
    n_train, n_test = integer(n_train, "n_train", 1), integer(n_test, "n_test", 1)
    return n_train, n_test, n_train + n_test + 2


def range_shift_split(series: Series, n_train: int = 180, n_test: int = 100):
    """Chronological split of the transitions: first n_train, next n_test."""
    n_train, n_test, n = _split_length(n_train, n_test)
    if len(series) < n:
        raise ValueError(
            f"series of length {len(series)} cannot yield {n_train}+{n_test} transitions"
        )
    data = to_transitions(series)
    return data[:n_train], data[n_train : n_train + n_test]


def write_csv(path, header, rows) -> None:
    """Write the `header` line, then a line per row: a str cell as is, any
    other as repr(float(cell)), which reads back to the same float."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(c if isinstance(c, str) else repr(float(c)) for c in row) + "\n")


def save_csv(series: Series, path, state_names, input_names) -> None:
    names = list(state_names) + list(input_names)
    if len(names) != series.x.shape[1] + series.u.shape[1]:
        raise ValueError("column names do not cover all channels")
    write_csv(path, ["t"] + names,
              ([t, *x, *u] for t, x, u in zip(series.t, series.x, series.u)))


def load_csv(path, state_cols=None, input_cols=None) -> Series:
    """Parse a trajectory CSV; malformed content is rejected with its line number.

    Column roles default to a plant's own schema, "t" then its `columns`;
    pass explicit column lists for foreign logs.
    """
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or not lines[0].strip():
        raise ValueError(f"{path}: missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    if state_cols is None or input_cols is None:
        for plant in (HvacPlant, TcLabPlant):
            if header == ["t", *plant.columns[0], *plant.columns[1]]:
                state_cols, input_cols = plant.columns
                break
        else:
            raise ValueError(f"{path}: unrecognized header {header}; pass state_cols/input_cols")
    for c in ["t"] + list(state_cols) + list(input_cols):
        if c not in header:
            raise ValueError(f"{path}: column {c!r} missing from header")
    idx = {c: header.index(c) for c in header}
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field") from None
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"{path}:{lineno}: non-finite value")
        rows.append((lineno, vals))
    if len(rows) < 1:
        raise ValueError(f"{path}: no data rows")
    t = np.array([v[idx["t"]] for _, v in rows])

    def reject(bad, what):  # bad: one flag per step; the line named is the later row's
        if bad.any():
            raise ValueError(f"{path}:{rows[int(np.argmax(bad)) + 1][0]}: {what}")

    if len(t) >= 2:
        with np.errstate(over="ignore"):
            dts = np.diff(t)
        reject(~np.isfinite(dts), "timestamp step overflows")
        reject(dts <= 0, "non-increasing timestamp")
        reject(np.abs(dts - dts[0]) > 1e-9 * max(1.0, abs(dts[0])), "gap in uniform sampling")
    x = np.array([[v[idx[c]] for c in state_cols] for _, v in rows])
    u = np.array([[v[idx[c]] for c in input_cols] for _, v in rows])
    return Series(t, x, u)


@dataclass
class Dataset:
    """A simulated plant's series and its chronological train/test split."""

    plant: HvacPlant | TcLabPlant
    series: Series
    train: Transitions
    test: Transitions


def hvac_benchmark(
    seed: int, n_train: int = 180, n_test: int = 100, noise_sigma: float = 0.05,
    plant: HvacPlant | None = None,
) -> Dataset:
    """Range-shifted identification benchmark on the room-temperature plant.

    A hot-ambient room (85 degF) is cooled by 55 degF supply air. Training
    samples wander a low band (about 68-73 degF) under heavy flows, testing
    samples a higher band (73-76 degF) under light flows; a pinned medium
    flow carries the trajectory gently across the boundary so the two bands
    overlap by well under the 1 degF budget. The supply stays 8+ degF colder
    than the room everywhere, so dT'/dmdot < 0 holds throughout and the
    sign prior (T: +, Ts: +, mdot: -) is true ground truth.

    `plant` replaces that room (None keeps the default `HvacPlant()`). The
    schedule's temperatures are written for the default room and carried
    onto this one by the affine map that fixes the 55 degF supply and sends
    85 degF to its T_amb; the heat balance at a given flow is invariant
    under that map, so the bands keep their places between supply and
    ambient. The settle phase's holding flow is read from the room's own
    k_a, c_p and T_amb. Flows and dwell times are not rescaled, so a room
    with another k_a may still miss the range shift, which raises
    RuntimeError.
    """
    real(noise_sigma, "noise_sigma")
    plant = HvacPlant() if plant is None else plant
    scale = (plant.T_amb - 55.0) / (85.0 - 55.0)

    def deg(t):
        return 55.0 + (t - 55.0) * scale

    n_train, n_test, n = _split_length(n_train, n_test)
    rng = np.random.default_rng(seed)
    x = np.empty((n, 1))
    u = np.empty((n, 2))
    x[0, 0] = deg(70.0)
    # flow is slew-limited so consecutive samples stay close in mdot; the
    # supply setpoint still jumps at dwell boundaries
    max_dm = 0.015
    # crossing window: flow pinned at a medium level whose equilibrium sits
    # just above the test band floor; the train/test boundary lands mid-climb
    climb_start = n_train - 6
    climb_end = climb_start + 12
    settle_start = climb_start - 14  # pre-crossing: park T near the band top
    # coverage window: drive flow down through the light-flow range the test
    # band uses, so that range is interpolated during training; a deep cool
    # first buys the headroom the slew-limited descent needs
    dip_start, dip_end = 62, 88
    m_cur, m_tgt, Ts = 0.16, 0.16, 55.0
    remaining = 0
    cool_turn = False
    for k in range(n):
        T = x[k, 0]
        if dip_start <= k < dip_end:
            if k < dip_start + 10:
                m_tgt, Ts = 0.26, deg(52.0)  # pre-cool toward the band floor
            elif k < dip_start + 20:
                m_tgt, Ts = 0.08, deg(52.5)  # glide down through medium flow
            else:
                m_tgt = 0.078 if T < deg(71.3) else 0.105  # regulated light flow
                Ts = deg(53.0)
            remaining = 0
        elif climb_start <= k < climb_end:
            m_tgt, Ts = 0.115, 55.0
            remaining = 0  # force a fresh draw right after the window
        elif remaining == 0:
            if k < settle_start:  # low-band phase
                if T < deg(70.6) and m_cur < 0.17 and rng.random() < 0.5:
                    # dip into the low-flow range the test band lives in, so
                    # flow is interpolated there even though T is not; cool
                    # supply keeps the room from warming out of band too fast
                    m_tgt = rng.uniform(0.075, 0.095)
                    Ts = deg(rng.uniform(52.0, 54.0))
                    remaining = int(rng.integers(4, 8))
                else:
                    if T < deg(68.8):
                        # recover slowly: low flow here chains into a dip
                        m_tgt = rng.uniform(0.085, 0.12)
                        Ts = deg(rng.uniform(52.0, 55.0))
                    elif T > deg(72.2):
                        m_tgt = rng.uniform(0.20, 0.26)
                        Ts = deg(rng.uniform(52.0, 58.0))
                    else:
                        m_tgt = rng.uniform(0.13, 0.22)
                        Ts = deg(rng.uniform(52.0, 58.0))
                    remaining = int(rng.integers(4, 8))
            elif k < climb_start:  # settle just under the crossing
                hold = plant.k_a * (plant.T_amb - T) / (plant.c_p * max(T - 55.0, 1.0))
                if T < deg(71.2):
                    m_tgt = max(hold - 0.02, 0.06)
                elif T > deg(72.2):
                    m_tgt = min(hold + 0.02, 0.26)
                else:
                    m_tgt = hold + rng.uniform(-0.008, 0.008)
                Ts = deg(rng.uniform(54.0, 56.0))
                remaining = int(rng.integers(2, 4))
            else:  # high-band phase: long alternating warm/cool plateaus in 73-76
                if T < deg(73.5):
                    m_tgt = rng.uniform(0.082, 0.09)
                elif T > deg(76.5):
                    m_tgt = rng.uniform(0.124, 0.135)
                elif cool_turn:
                    m_tgt = rng.uniform(0.124, 0.135)
                else:
                    m_tgt = rng.uniform(0.082, 0.09)
                cool_turn = not cool_turn
                Ts = deg(rng.uniform(54.0, 56.0))
                remaining = int(rng.integers(14, 23))
        else:
            remaining -= 1
            # escape valves: abort a dwell that is drifting out of its band
            if k < settle_start and T > deg(71.5) and m_tgt < 0.11:
                remaining = 0  # low-flow dip has warmed the room enough
            elif k < settle_start and T > deg(72.2) and m_tgt < 0.20:
                remaining = 0
            elif k >= climb_end and T < deg(73.3) and m_tgt > 0.10:
                remaining = 0
        m_cur += float(np.clip(m_tgt - m_cur, -max_dm, max_dm))
        u[k] = (Ts, m_cur)
        if k + 1 < n:
            x[k + 1] = plant.step(x[k], u[k])
    if noise_sigma > 0:
        x = x + rng.normal(0.0, noise_sigma, size=x.shape)
    series = Series(np.arange(n, dtype=np.float64) * plant.dt, x, u)
    train, test = range_shift_split(series, n_train, n_test)
    max_train = float(train.x_next[:, 0].max())
    min_test = float(test.x_next[:, 0].min())
    if not max_train < min_test + 1.0:
        raise RuntimeError(
            f"range shift failed: max train T {max_train:.2f} vs "
            f"min test T {min_test:.2f} exceeds the 1 degF overlap budget"
        )
    return Dataset(plant, series, train, test)


def tclab_dataset(
    seed: int, n_train: int = 250, n_test: int = 60, noise_sigma: float = 0.05,
    plant: TcLabPlant | None = None,
) -> Dataset:
    """Identification data: heaters wander 10-50 % with 120/150 s dwells,
    on `plant` (None: the default `TcLabPlant()`), split chronologically by
    `range_shift_split`, so both split sizes must be integers >= 1."""
    plant = TcLabPlant() if plant is None else plant
    policy = ExcitePolicy(
        lo=np.array([10.0, 10.0]),
        hi=np.array([50.0, 50.0]),
        dwell_choices=(8, 10),  # 120 s or 150 s at dt = 15 s
        noise_sigma=noise_sigma,
    )
    n_train, n_test, n = _split_length(n_train, n_test)
    series = excite(plant, policy, n, seed, x0=np.array([plant.T_amb, plant.T_amb]))
    return Dataset(plant, series, *range_shift_split(series, n_train, n_test))
