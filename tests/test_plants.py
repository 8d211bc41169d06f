"""Plant simulators, excitation, transitions, CSV IO, benchmark splits."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtnn import plants as pl
import oracles

RNG = np.random.default_rng(99)


class TestHvacStep:
    def test_equilibrium(self):
        p = pl.HvacPlant(k_a=0.02, T_amb=70.0)
        assert p.step([70.0], [70.0, 0.5])[0] == 70.0

    def test_isolated_room(self):
        p = pl.HvacPlant(k_a=0.0)
        assert p.step([71.3], [55.0, 0.0])[0] == 71.3

    def test_hand_arithmetic(self):
        # T + (dt/C)(mdot c_p (Ts - T) + k_a (T_amb - T))
        # = 70 + 0.6 * (0.5 * 1.0 * (55 - 70) + 0.02 * (70 - 70)) = 65.5
        p = pl.HvacPlant(C=500.0, c_p=1.0, k_a=0.02, T_amb=70.0, dt=300.0)
        assert p.step([70.0], [55.0, 0.5])[0] == pytest.approx(65.5, abs=1e-12)

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            pl.HvacPlant().step([70.0], [55.0, -0.1])

    def test_flow_above_the_audited_range_rejected(self):
        # above mdot_max the update can fall in T, against the "T: +" prior
        p = pl.HvacPlant()
        assert p.step([70.0], [55.0, p.mdot_max])[0] == pytest.approx(62.8, abs=1e-12)
        for mdot in (np.nextafter(p.mdot_max, 2.0), 5.0):
            with pytest.raises(ValueError, match=r"mdot must lie in \[0, mdot_max = 1\.0\]"):
                p.step([70.0], [55.0, mdot])

    def test_step_method_wraps_vectors(self):
        p = pl.HvacPlant(k_a=0.02, T_amb=70.0)
        out = p.step(np.array([70.0]), np.array([55.0, 0.5]))
        np.testing.assert_allclose(out, [65.5])

    def test_construction_audit_rejects_nonmonotone_range(self):
        # dt/C = 3 makes the own-temperature partial negative at high flow
        with pytest.raises(ValueError, match="increasing in T"):
            pl.HvacPlant(C=100.0)

    def test_monotone_partials_on_random_probes(self):
        p = pl.HvacPlant()
        rng = np.random.default_rng(1)
        X = rng.uniform(40, 100, size=(10_000, 1))
        U = np.column_stack([rng.uniform(40, 100, size=10_000),
                             rng.uniform(0.0, p.mdot_max, size=10_000)])
        eps = 1e-4
        e_Ts = [eps, 0.0]
        dTs = (p.step(X, U + e_Ts) - p.step(X, U - e_Ts)) / (2 * eps)
        dT = (p.step(X + eps, U) - p.step(X - eps, U)) / (2 * eps)
        assert (dTs >= 0).all()
        assert (dT >= 0).all()


class TestTcLabStep:
    def test_ambient_equilibrium(self):
        p = pl.TcLabPlant()
        T1, T2 = p.step([23.0, 23.0], [0.0, 0.0])
        assert (T1, T2) == (23.0, 23.0)

    def test_hand_arithmetic(self):
        # T1' = 30 + 15 (0.0065*50 + 0.008*(23-30) + 0.003*(30-30)) = 34.035
        p = pl.TcLabPlant()
        T1, T2 = p.step([30.0, 30.0], [50.0, 50.0])
        assert T1 == pytest.approx(34.035, abs=1e-12)
        assert T2 == pytest.approx(34.035, abs=1e-12)

    def test_own_heater_raises_own_and_coupled_temperature(self):
        p = pl.TcLabPlant()
        base1, base2 = p.step([30.0, 31.0], [40.0, 25.0])
        hot1, hot2 = p.step([30.0, 31.0], [45.0, 25.0])
        assert hot1 > base1
        assert hot2 == base2  # same step: no direct path
        b1, b2 = p.step([base1, base2], [40.0, 25.0])
        h1, h2 = p.step([hot1, hot2], [40.0, 25.0])
        assert h2 > b2  # two steps: coupling carries it over

    def test_power_bounds_enforced(self):
        p = pl.TcLabPlant()
        with pytest.raises(ValueError):
            p.step([30.0, 30.0], [101.0, 50.0])
        with pytest.raises(ValueError):
            p.step([30.0, 30.0], [50.0, -1.0])

    def test_construction_audit(self):
        with pytest.raises(ValueError, match="dt too large"):
            pl.TcLabPlant(k_loss=0.05, k_couple=0.02)
        with pytest.raises(ValueError):
            pl.TcLabPlant(alpha1=-0.001)

    def test_monotone_partials_on_random_probes(self):
        p = pl.TcLabPlant()
        rng = np.random.default_rng(2)
        X = rng.uniform(20, 80, size=(10_000, 2))
        U = rng.uniform(1, 99, size=(10_000, 2))
        eps = 1e-4
        e1, e2 = [eps, 0.0], [0.0, eps]
        dQ1 = (p.step(X, U + e1) - p.step(X, U - e1))[:, 0] / (2 * eps)
        dT2 = (p.step(X + e2, U) - p.step(X - e2, U))[:, 0] / (2 * eps)
        dQ2own = (p.step(X, U + e2) - p.step(X, U - e2))[:, 1] / (2 * eps)
        assert (dQ1 >= 0).all()
        assert (dT2 >= 0).all()
        assert (dQ2own >= 0).all()

    def test_mono_spec_shapes(self):
        assert pl.TcLabPlant().mono_spec().tags.shape == (2, 4)
        assert pl.HvacPlant().mono_spec().tags.shape == (1, 3)


class TestExcite:
    def policy(self, **kw):
        defaults = dict(lo=np.array([10.0, 10.0]), hi=np.array([50.0, 50.0]))
        defaults.update(kw)
        return pl.ExcitePolicy(**defaults)

    def test_constant_policy_single_level(self):
        p = pl.TcLabPlant()
        pol = self.policy(lo=np.array([30.0, 20.0]), hi=np.array([30.0, 20.0]))
        s = pl.excite(p, pol, 20, seed=0, x0=[23.0, 23.0])
        assert (s.u == [30.0, 20.0]).all()

    def test_levels_within_bounds(self):
        s = pl.excite(pl.TcLabPlant(), self.policy(), 200, seed=3, x0=[23.0, 23.0])
        assert (s.u >= 10.0).all() and (s.u <= 50.0).all()

    def test_determinism(self):
        p = pl.TcLabPlant()
        a = pl.excite(p, self.policy(noise_sigma=0.05), 100, seed=7, x0=[23.0, 23.0])
        b = pl.excite(p, self.policy(noise_sigma=0.05), 100, seed=7, x0=[23.0, 23.0])
        assert np.array_equal(a.x, b.x) and np.array_equal(a.u, b.u)

    def test_dwell_lengths_come_from_choices(self):
        s = pl.excite(
            pl.TcLabPlant(), self.policy(dwell_choices=(8, 10)), 300, seed=11,
            x0=[23.0, 23.0],
        )
        changes = np.where(np.any(np.diff(s.u, axis=0) != 0, axis=1))[0]
        runs = np.diff(changes)
        assert set(runs.tolist()) <= {8, 10}

    def test_states_follow_plant(self):
        p = pl.TcLabPlant()
        s = pl.excite(p, self.policy(), 50, seed=5, x0=[23.0, 23.0])
        for k in range(49):
            np.testing.assert_allclose(s.x[k + 1], p.step(s.x[k], s.u[k]), rtol=1e-14)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pl.excite(pl.TcLabPlant(), self.policy(), 2, seed=0, x0=[23.0, 23.0])

    @pytest.mark.parametrize("n", [2, 2.5, 10.5, True, "10", np.nan,
                                   pytest.param(10**400, id="huge_int")])
    def test_sample_count_is_an_integer_of_at_least_3(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 3, got "):
            pl.excite(pl.TcLabPlant(), self.policy(), n, seed=0, x0=[23.0, 23.0])

    def test_integral_float_sample_count_accepted(self):
        a = pl.excite(pl.TcLabPlant(), self.policy(), 20.0, seed=0, x0=[23.0, 23.0])
        b = pl.excite(pl.TcLabPlant(), self.policy(), 20, seed=0, x0=[23.0, 23.0])
        assert np.array_equal(a.x, b.x) and np.array_equal(a.u, b.u)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            pl.ExcitePolicy(lo=np.array([2.0]), hi=np.array([1.0]))
        with pytest.raises(ValueError):
            pl.ExcitePolicy(lo=np.array([1.0]), hi=np.array([2.0]), dwell_choices=())
        # a fractional dwell used to be held for its floor
        for bad in (2.5, 0, True, "8"):
            with pytest.raises(ValueError, match=r"^dwell_choices\[1\] must be an integer >= 1"):
                self.policy(dwell_choices=(8, bad))
        assert self.policy(dwell_choices=(8.0, 10)).dwell_choices == (8, 10)

    @pytest.mark.parametrize("sigma", ["x", "0.1", None, True, [0.1], np.nan, -0.1])
    def test_noise_that_is_not_a_finite_number_is_named(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            self.policy(noise_sigma=sigma)
        with pytest.raises(ValueError, match="noise_sigma"):
            pl.hvac_benchmark(seed=0, noise_sigma=sigma)

    def test_integer_too_large_for_a_float_is_a_named_error(self):
        huge = 10**400  # np.isfinite raises TypeError on it
        with pytest.raises(ValueError, match="noise_sigma"):
            self.policy(noise_sigma=huge)
        with pytest.raises(ValueError, match="noise_sigma"):
            pl.hvac_benchmark(seed=0, noise_sigma=huge)
        with pytest.raises(ValueError, match="TcLabPlant.T_amb"):
            pl.TcLabPlant(T_amb=huge)
        with pytest.raises(ValueError, match="HvacPlant.T_amb"):
            pl.HvacPlant(T_amb=huge)


class TestTransitions:
    def series(self, n):
        t = np.arange(n) * 15.0
        x = np.arange(n, dtype=float).reshape(-1, 1) * 10
        u = np.arange(n, dtype=float).reshape(-1, 1) + 100
        return pl.Series(t, x, u)

    def test_length_three_gives_one(self):
        trs = pl.to_transitions(self.series(3))
        assert len(trs) == 1
        np.testing.assert_array_equal(trs[0].z_prev, [0.0, 100.0])
        np.testing.assert_array_equal(trs[0].z_curr, [10.0, 101.0])
        np.testing.assert_array_equal(trs[0].x_next, [20.0])

    def test_length_five_windows(self):
        trs = pl.to_transitions(self.series(5))
        assert len(trs) == 3
        for i, tr in enumerate(trs):
            np.testing.assert_array_equal(tr.z_prev, [10.0 * i, 100.0 + i])
            np.testing.assert_array_equal(tr.z_curr, [10.0 * (i + 1), 101.0 + i])
            np.testing.assert_array_equal(tr.x_next, [10.0 * (i + 2)])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pl.to_transitions(self.series(2))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 40),
           widths=st.sampled_from([(pl.HvacPlant.nx, pl.HvacPlant.nu),
                                   (pl.TcLabPlant.nx, pl.TcLabPlant.nu)]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_row_oracle(self, n, widths, seed):
        nx, nu = widths
        rng = np.random.default_rng(seed)
        s = pl.Series(np.arange(n) * 15.0, rng.normal(size=(n, nx)), rng.normal(size=(n, nu)))
        got = pl.to_transitions(s)
        for arr, want in zip((got.z_prev, got.z_curr, got.x_next),
                             oracles.transitions_per_row(s)):
            assert arr.dtype == want.dtype and arr.shape == want.shape
            assert arr.tobytes() == want.tobytes()

    def test_sequence_contract(self):
        data = pl.to_transitions(self.series(6))
        assert len(data) == 4
        part = data[1:3]
        assert isinstance(part, pl.Transitions) and len(part) == 2
        np.testing.assert_array_equal(part.z_curr, data.z_curr[1:3])
        last = data[-1]
        assert last.z_prev.ndim == last.z_curr.ndim == last.x_next.ndim == 1
        np.testing.assert_array_equal(last.x_next, [50.0])
        rows = list(data)
        assert len(rows) == 4
        for k, t in enumerate(rows):
            np.testing.assert_array_equal(t.z_prev, data.z_prev[k])
            np.testing.assert_array_equal(t.z_curr, data.z_curr[k])
            np.testing.assert_array_equal(t.x_next, data.x_next[k])
        with pytest.raises(IndexError):
            data[4]
        # the read the rollout benchmark makes of its log: heater powers per sample
        log = pl.tclab_dataset(seed=0, n_train=3, n_test=20).test
        Q = np.stack([t.z_curr[2:] for t in log])
        assert Q.shape == (20, 2)
        np.testing.assert_array_equal(Q, log.z_curr[:, 2:])

    def test_held_arrays_are_read_only(self):
        Zp, Zc, Xn = np.zeros((3, 2)), np.ones((3, 2)), np.zeros((3, 1))
        data = pl.Transitions(Zp, Zc, Xn)
        built = pl.to_transitions(self.series(5))
        for d in (data, built):
            for arr in (d.z_prev, d.z_curr, d.x_next, d[0].z_curr, d[1:].x_next):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0
        for arr in (Zp, Zc, Xn):  # the caller's own arrays keep their flags
            assert arr.flags.writeable
            arr[0] = 2.0

    @pytest.mark.parametrize("shapes", [
        ((4,), (4,), (4,)),  # not 2-D
        ((4, 3), (4, 3), (4,)),
        ((4, 3), (5, 3), (4, 1)),  # row counts
        ((4, 3), (4, 3), (5, 1)),
        ((4, 3), (4, 2), (4, 1)),  # widths
        ((0, 3), (0, 3), (0, 1)),  # no rows
    ])
    def test_malformed_shapes_rejected(self, shapes):
        with pytest.raises(ValueError, match=re.escape(", ".join(map(str, shapes)))):
            pl.Transitions(*(np.zeros(s) for s in shapes))


def _csv_like():
    """Text shaped like a trajectory CSV: a native or odd header, then rows
    of numbers, near-numbers and junk, often with a uniform time column."""
    number = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(["", " ", "nan", "-inf", "1e999", "1_0", "0x1", "+1.5", " 2 ",
                         "1.7e308", "-1.7e308"]),
        st.text(max_size=4),
    )
    header = st.one_of(
        st.sampled_from(["t,T,Ts,mdot", "t,T1,T2,Q1,Q2", "t,T1,T2,Q1", "T,t,Ts,mdot", ""]),
        st.text(max_size=12),
    )

    @st.composite
    def table(draw):
        head = draw(header)
        width = max(len(head.split(",")), 1)
        dt = draw(st.sampled_from([1.0, 15.0, 1e-300, 1e300, -1.0]))
        n = draw(st.integers(0, 6))
        rows = []
        for k in range(n):
            cells = draw(st.lists(number, min_size=width, max_size=width))
            if draw(st.booleans()):
                cells[0] = repr(k * dt)
            if draw(st.integers(0, 5)) == 0:
                cells = cells[:-1]
            rows.append(",".join(cells))
        eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        return eol.join([head, *rows]) + draw(st.sampled_from(["", eol, eol + eol]))

    return table()


CSV_LIKE = _csv_like()


class TestCsv:
    def test_round_trip(self, tmp_path):
        s = pl.excite(
            pl.TcLabPlant(),
            pl.ExcitePolicy(lo=np.array([10.0, 10.0]), hi=np.array([50.0, 50.0])),
            30,
            seed=13,
            x0=[23.0, 23.0],
        )
        p = tmp_path / "run.csv"
        pl.save_csv(s, p, ["T1", "T2"], ["Q1", "Q2"])
        back = pl.load_csv(p)
        np.testing.assert_array_equal(back.t, s.t)
        np.testing.assert_array_equal(back.x, s.x)
        np.testing.assert_array_equal(back.u, s.u)

    def test_hvac_schema_recognized(self, tmp_path):
        p = tmp_path / "hvac.csv"
        p.write_text("t,T,Ts,mdot\n0.0,70.0,55.0,0.2\n300.0,69.0,55.0,0.2\n")
        s = pl.load_csv(p)
        assert s.x.shape == (2, 1) and s.u.shape == (2, 2)

    def test_timestamp_gap_rejected_with_line(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("t,T,Ts,mdot\n0.0,70,55,0.2\n300.0,69,55,0.2\n900.0,68,55,0.2\n")
        with pytest.raises(ValueError, match="4"):
            pl.load_csv(p)

    def test_nonmonotone_timestamp_rejected(self, tmp_path):
        p = tmp_path / "mono.csv"
        p.write_text("t,T,Ts,mdot\n0.0,70,55,0.2\n300.0,69,55,0.2\n200.0,68,55,0.2\n")
        with pytest.raises(ValueError, match="non-increasing"):
            pl.load_csv(p)

    def test_overflowing_timestamp_step_rejected_with_line(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("t,T,Ts,mdot\n-1.7e308,70,55,0.2\n1.7e308,69,55,0.2\n")
        with pytest.raises(ValueError, match=r"huge.csv:3: timestamp step overflows"):
            pl.load_csv(p)

    def test_nan_rejected_with_line(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("t,T,Ts,mdot\n0.0,70,55,0.2\n300.0,nan,55,0.2\n")
        with pytest.raises(ValueError, match="3"):
            pl.load_csv(p)

    def test_wrong_field_count_rejected(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("t,T,Ts,mdot\n0.0,70,55\n")
        with pytest.raises(ValueError, match="2"):
            pl.load_csv(p)

    def test_unknown_header_needs_mapping(self, tmp_path):
        p = tmp_path / "foreign.csv"
        p.write_text("t,room,supply,flow\n0.0,70,55,0.2\n300.0,69,55,0.2\n")
        with pytest.raises(ValueError, match="unrecognized"):
            pl.load_csv(p)
        s = pl.load_csv(p, state_cols=["room"], input_cols=["supply", "flow"])
        np.testing.assert_array_equal(s.x[:, 0], [70.0, 69.0])

    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_text_loads_finite_or_is_rejected_naming_the_path(self, tmp_path, data):
        text = data.draw(st.one_of(st.text(), CSV_LIKE), label="text")
        p = tmp_path / "fuzz.csv"
        p.write_text(text, encoding="utf-8")
        try:
            s = pl.load_csv(p)
        except ValueError as e:
            assert str(p) in str(e)
            return
        assert isinstance(s, pl.Series) and len(s) >= 1
        assert s.x.shape[0] == s.u.shape[0] == len(s)
        assert all(np.isfinite(a).all() for a in (s.t, s.x, s.u))

    def test_save_byte_deterministic(self, tmp_path):
        s = pl.Series(np.array([0.0, 15.0]), np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        pl.save_csv(s, p1, ["T"], ["Q"])
        pl.save_csv(s, p2, ["T"], ["Q"])
        assert p1.read_bytes() == p2.read_bytes()


class TestReal:
    @pytest.mark.parametrize("v, positive", [(0, False), (0.0, False), (3, True),
                                             (np.float64(2.5e-4), True), (1e308, True)])
    def test_accepted_value_comes_back_as_the_same_float(self, v, positive):
        out = pl.real(v, "rate", positive=positive)
        assert type(out) is float and out == v

    @pytest.mark.parametrize("v, positive", [
        (-1e-12, False), (0, True), (0.0, True), (float("nan"), False),
        (float("inf"), False), (True, False), ("0.1", False), (None, False),
        (10**400, False), (np.float64(-0.5), True)])
    def test_rejected_value_is_one_message_naming_the_setting(self, v, positive):
        bound = "> 0" if positive else ">= 0"
        want = f"rate must be a finite real number {bound}, got {v!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            pl.real(v, "rate", positive=positive)


class TestRangeShiftSplit:
    def test_exact_sizes(self):
        n = 282
        t = np.arange(n) * 300.0
        x = np.linspace(68, 76, n).reshape(-1, 1)
        u = np.zeros((n, 2))
        train, test = pl.range_shift_split(pl.Series(t, x, u))
        assert len(train) == 180 and len(test) == 100

    def test_insufficient_rejected(self):
        t = np.arange(100) * 300.0
        s = pl.Series(t, np.zeros((100, 1)), np.zeros((100, 2)))
        with pytest.raises(ValueError):
            pl.range_shift_split(s)

    def test_zero_train_rejected(self):
        t = np.arange(300) * 300.0
        s = pl.Series(t, np.zeros((300, 1)), np.zeros((300, 2)))
        with pytest.raises(ValueError):
            pl.range_shift_split(s, n_train=0, n_test=10)


class TestHvacBenchmark:
    def test_sizes_and_overlap_budget(self):
        b = pl.hvac_benchmark(seed=0)
        assert len(b.train) == 180 and len(b.test) == 100
        max_train = max(t.x_next[0] for t in b.train)
        min_test = min(t.x_next[0] for t in b.test)
        assert max_train < min_test + 1.0

    def test_band_shift_is_real(self):
        b = pl.hvac_benchmark(seed=1)
        train_T = np.array([t.x_next[0] for t in b.train])
        test_T = np.array([t.x_next[0] for t in b.test])
        assert np.median(test_T) - np.median(train_T) > 2.0

    def test_supply_always_colder_than_room(self):
        # keeps the mdot partial negative everywhere, matching the "-" tag
        b = pl.hvac_benchmark(seed=2)
        assert (b.series.u[:, 0] < b.series.x[:, 0] - 5.0).all()

    def test_deterministic(self):
        a, b = pl.hvac_benchmark(seed=5), pl.hvac_benchmark(seed=5)
        assert np.array_equal(a.series.x, b.series.x)
        assert np.array_equal(a.series.u, b.series.u)

    @pytest.mark.parametrize("T_amb", [70.0, 90.0])
    def test_other_ambient_keeps_the_range_shift(self, T_amb):
        room = pl.HvacPlant(T_amb=T_amb)
        b = pl.hvac_benchmark(seed=0, plant=room)
        assert max(t.x_next[0] for t in b.train) < min(t.x_next[0] for t in b.test) + 1.0
        # without noise the run is the default room's, carried by the map
        # that fixes the 55 degF supply and sends 85 degF to T_amb
        scale = (T_amb - 55.0) / 30.0
        want = pl.hvac_benchmark(seed=0, noise_sigma=0.0)
        got = pl.hvac_benchmark(seed=0, noise_sigma=0.0, plant=room)
        np.testing.assert_allclose(got.series.x, 55.0 + (want.series.x - 55.0) * scale,
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(got.series.u[:, 0], 55.0 + (want.series.u[:, 0] - 55.0) * scale,
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(got.series.u[:, 1], want.series.u[:, 1], rtol=0.0, atol=1e-12)


class TestTcLabDataset:
    def test_sizes_and_bounds(self):
        d = pl.tclab_dataset(seed=0)
        assert len(d.train) == 250 and len(d.test) == 60
        assert (d.series.u >= 10.0).all() and (d.series.u <= 50.0).all()

    def test_deterministic(self):
        a, b = pl.tclab_dataset(seed=4), pl.tclab_dataset(seed=4)
        assert np.array_equal(a.series.x, b.series.x)

    @pytest.mark.parametrize("n_train,n_test",
                             [(-1, 3), (0, 5), (5, 0), (4, -2), (-10, 3), (-5, 1)])
    def test_split_sizes_must_be_positive(self, n_train, n_test):
        # a split that used to come back short or empty, or fail inside the
        # simulation when it leaves fewer than 3 samples
        name, v = ("n_train", n_train) if n_train < 1 else ("n_test", n_test)
        message = f"^{name} must be an integer >= 1, got {v}$"
        with pytest.raises(ValueError, match=message):
            pl.tclab_dataset(seed=0, n_train=n_train, n_test=n_test)
        with pytest.raises(ValueError, match=message):
            pl.hvac_benchmark(seed=0, n_train=n_train, n_test=n_test)

    def test_split_sizes_follow_the_integer_rule(self):
        # True used to give a 1-sample split, and 180.0 a TypeError
        series = pl.Series(np.arange(300) * 15.0, np.zeros((300, 2)), np.zeros((300, 2)))
        for bad in (True, 2.5, "40", 10**400):
            with pytest.raises(ValueError, match="^n_train must be an integer >= 1, got "):
                pl.tclab_dataset(seed=0, n_train=bad)
            with pytest.raises(ValueError, match="^n_test must be an integer >= 1, got "):
                pl.range_shift_split(series, 40, bad)
        a, b = pl.hvac_benchmark(0, n_train=180.0), pl.hvac_benchmark(0)
        assert np.array_equal(a.series.x, b.series.x) and len(a.train) == 180
