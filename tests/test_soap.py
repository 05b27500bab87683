"""Adaptive refinement loop: slack accounting, saturation detection,
bursting, and the full solve/refine iteration.

Record slacks are checked against hand-computed values on tiny models and
against the solver's own cone-block margins on solved programs; the loop
itself is exercised on a small fixture whose floor constraint binds in a
known sub-interval, so refinement must concentrate there and leave the
slack zone untouched.
"""

import importlib
import math
import pickle

import numpy as np
import pytest

from shapekernel import (
    AnchorRecord,
    Atom,
    DiffFunctional,
    Equality,
    GaussianKernel,
    InclusionRecord,
    InputBall,
    LaplacianKernel,
    Model,
    NormMin,
    Observation,
    OmegaElement,
    ProblemSpec,
    Ridge,
    SdpOperator,
    ShapeConstraint,
    SoapInfeasible,
    SoapState,
    cover_box,
    detect_saturated,
    discretize,
    eta_for,
    omega_cover,
    record_slack,
    run_soap,
    solve_problem,
    tighten_omega,
    tighten_soc,
    verify_pointwise,
)
from shapekernel.soap import _burst

VAL = DiffFunctional.value(1)


def step_spec():
    """Low targets left, high targets right, floor 0.3 in between.

    The unconstrained fit dips below the floor around the left anchors, so
    the floor binds there and is slack on the right half of the region.
    """
    c = ShapeConstraint(
        region=((0.2, 0.8),),
        operator=SdpOperator.scalar(VAL),
        offset=(0.3,),
    )
    obs = [
        Observation(VAL, (0.25,), 0.0),
        Observation(VAL, (0.35,), 0.0),
        Observation(VAL, (0.65,), 1.2),
        Observation(VAL, (0.75,), 1.2),
    ]
    return ProblemSpec(
        kernel=GaussianKernel([0.5]),
        observations=obs,
        loss="squared",
        regularizer=Ridge(0.01),
        constraints=[c],
    )


def ball_setup(spec, delta, seed=0):
    c = spec.constraints[0]
    balls = cover_box(c.region, delta, norm="max")
    etas = [
        eta_for(spec.kernel, c.operator, b.center, b.radius, norm=b.norm,
                n_x=50, n_u=20, seed=seed)
        for b in balls
    ]
    return balls, etas, tighten_soc(c, balls, etas, constraint_index=0)


def block_for(prog, rec):
    want = ("record",) + tuple(rec.provenance)
    for bi, blk in enumerate(prog.blocks):
        if blk.provenance == want:
            return bi, blk
    raise AssertionError(f"no cone block tagged {want}")


def nonneg_row_slacks(prog, x):
    """Map ('record', ci, m) -> slack of that nonneg row at x."""
    out = {}
    for blk in prog.blocks:
        if blk.kind != "nonneg":
            continue
        slack = blk.h - blk.G @ x
        for k, prov in enumerate(blk.provenance[1]):
            if prov and prov[0] == "record":
                out[tuple(prov[1:])] = float(slack[k])
    return out


class TestRecordSlack:
    def test_linear_matches_hand_value(self):
        kern = GaussianKernel([1.0])
        model = Model(kern, (Atom((0.3,), VAL),), np.array([0.7]))
        rec = AnchorRecord(atoms=((Atom((0.5,), VAL),),), eta=0.0,
                           gamma=((),), offset=(0.1,), provenance=(0, 0))
        expected = 0.7 * float(kern.eval((0.3,), (0.5,))[0, 0]) - 0.1
        assert record_slack(model, rec) == pytest.approx(expected,
                                                         abs=1e-12)

    def test_linear_includes_bias_term(self):
        kern = GaussianKernel([1.0])
        model = Model(kern, (Atom((0.3,), VAL),), np.array([0.7]),
                      bias=np.array([0.25]))
        rec = AnchorRecord(atoms=((Atom((0.5,), VAL),),), eta=0.0,
                           gamma=((2.0,),), offset=(0.1,),
                           provenance=(0, 0))
        expected = (0.7 * float(kern.eval((0.3,), (0.5,))[0, 0])
                    + 2.0 * 0.25 - 0.1)
        assert record_slack(model, rec) == pytest.approx(expected,
                                                         abs=1e-12)

    def test_soc_buffer_subtracts_scaled_norm(self):
        kern = GaussianKernel([1.0])
        model = Model(kern, (Atom((0.3,), VAL), Atom((0.9,), VAL)),
                      np.array([0.7, -0.2]))
        rec = AnchorRecord(atoms=((Atom((0.5,), VAL),),), eta=0.25,
                           gamma=((),), offset=(0.1,), provenance=(0, 0))
        fval = sum(
            coef * float(kern.eval(atom.x, (0.5,))[0, 0])
            for coef, atom in zip(model.coeffs, model.basis)
        )
        expected = fval - 0.1 - 0.25 * model.norm
        assert record_slack(model, rec) == pytest.approx(expected,
                                                         rel=1e-10)

    def test_unknown_record_type_rejected(self):
        kern = GaussianKernel([1.0])
        model = Model(kern, (Atom((0.3,), VAL),), np.array([0.7]))

        class Stub:
            provenance = (0,)

        with pytest.raises(TypeError, match="unknown record type"):
            record_slack(model, Stub())


class TestSlackVsSolver:
    """The kernel-space slack bookkeeping must agree with the margins the
    solver sees in whitened program coordinates."""

    def test_linear_rows_match_program_slack(self):
        spec = step_spec()
        c = spec.constraints[0]
        pts = [b.center for b in cover_box(c.region, 0.05, norm="max")]
        recs = discretize(c, pts, constraint_index=0)
        model, sol, prog = solve_problem(spec, recs)
        rows = nonneg_row_slacks(prog, sol.x)
        for rec in recs:
            got = record_slack(model, rec)
            assert got == pytest.approx(rows[tuple(rec.provenance)],
                                        abs=1e-7)

    def test_buffered_rows_match_after_epigraph_correction(self):
        spec = step_spec()
        balls, etas, recs = ball_setup(spec, 0.05)
        model, sol, prog = solve_problem(spec, recs)
        rows = nonneg_row_slacks(prog, sol.x)
        # The program replaces ||f|| by the epigraph variable t >= ||f||;
        # adding back eta * (t - ||f||) must reproduce the row slack.
        t_val = model.aux["t"]
        assert t_val >= model.norm - 1e-7
        for rec in recs:
            got = record_slack(model, rec)
            row = rows[tuple(rec.provenance)]
            assert row == pytest.approx(got - rec.eta * (t_val - model.norm),
                                        abs=1e-6)

    def test_saturated_rows_are_active_in_program(self):
        spec = step_spec()
        _, _, recs = ball_setup(spec, 0.05)
        model, sol, prog = solve_problem(spec, recs)
        rows = nonneg_row_slacks(prog, sol.x)
        sat = detect_saturated(model, recs, tol_sat=1e-6)
        assert sat
        for idx in sat:
            assert rows[tuple(recs[idx].provenance)] <= 1e-5

    def test_inclusion_matches_soc_block_margin(self):
        spec = step_spec()
        c = spec.constraints[0]
        balls = cover_box(c.region, 0.05, norm="max")
        elems = omega_cover(spec.kernel, VAL, balls, n_x=50, seed=0)
        recs = tighten_omega(c, elems, constraint_index=0)
        assert any(isinstance(r, InclusionRecord) for r in recs)
        model, sol, prog = solve_problem(spec, recs)
        for rec in recs:
            if not isinstance(rec, InclusionRecord):
                continue
            bi, blk = block_for(prog, rec)
            s = sol.s[prog.block_slices[bi]]
            margin = float(s[0] - np.linalg.norm(s[1:]))
            got = record_slack(model, rec)
            assert got == pytest.approx(margin, abs=1e-6)

    def test_matrix_min_eig_matches_rsoc_block(self):
        der = DiffFunctional.partial(1, axis=0)
        op = SdpOperator(((VAL, der), (der, VAL)))
        c = ShapeConstraint(((0.2, 0.8),), op, (0.0, 0.0))
        obs = [Observation(VAL, (0.3,), 0.5), Observation(VAL, (0.7,), 1.0)]
        spec = ProblemSpec(kernel=GaussianKernel([0.6]), observations=obs,
                           loss="squared", regularizer=Ridge(0.05),
                           constraints=[c])
        balls = cover_box(c.region, 0.1, norm="max")
        etas = [eta_for(spec.kernel, op, b.center, b.radius, norm=b.norm,
                        n_x=50, n_u=20, seed=0) for b in balls]
        recs = tighten_soc(c, balls, etas, constraint_index=0)
        assert all(r.size == 2 for r in recs)
        model, sol, prog = solve_problem(spec, recs)
        t_val = model.aux["t"]
        corr = recs[0].eta and (t_val - model.norm)
        s2 = math.sqrt(2.0)
        for rec in recs:
            bi, blk = block_for(prog, rec)
            assert blk.kind == "soc"
            # the rotated cone's slack (u, v, w), back through the
            # self-inverse rotation assemble wrote the SOC block with
            s = sol.s[prog.block_slices[bi]]
            u, v, w = (s[0] + s[1]) / s2, (s[0] - s[1]) / s2, s[2]
            M = np.array([
                [u + rec.eta * corr, w / s2],
                [w / s2, v + rec.eta * corr],
            ])
            got = record_slack(model, rec)
            assert got == pytest.approx(float(np.linalg.eigvalsh(M)[0]),
                                        abs=1e-6)


class TestDetectSaturated:
    def test_binding_floor_saturates_somewhere(self):
        spec = step_spec()
        _, _, recs = ball_setup(spec, 0.05)
        model, _, _ = solve_problem(spec, recs)
        sat = detect_saturated(model, recs, tol_sat=1e-6)
        assert sat
        tol_eff = 1e-6 * (1.0 + model.norm)
        for idx, rec in enumerate(recs):
            slack = record_slack(model, rec)
            assert (idx in sat) == (abs(slack) <= tol_eff)
        # The floor binds where the data pulls the fit down, not under the
        # high targets on the right.
        for idx in sat:
            assert recs[idx].atoms[0][0].x[0] < 0.65

    def test_slack_constraint_never_saturates(self):
        spec = step_spec()
        low = ShapeConstraint(((0.2, 0.8),), SdpOperator.scalar(VAL),
                              (-10.0,))
        spec = ProblemSpec(kernel=spec.kernel, observations=spec.observations,
                           loss="squared", regularizer=Ridge(0.01),
                           constraints=[low])
        _, _, recs = ball_setup(spec, 0.05)
        model, _, _ = solve_problem(spec, recs)
        assert detect_saturated(model, recs, tol_sat=1e-6) == []


    def test_builds_one_basis_index_per_model(self, monkeypatch):
        # each enclosure record's slack looks its atom up in the model's
        # one index, not in one rebuilt over the whole basis
        spec = step_spec()
        c = spec.constraints[0]
        balls = cover_box(c.region, 0.01, norm="max")
        elems = omega_cover(spec.kernel, VAL, balls, n_x=50, seed=0)
        recs = tighten_omega(c, elems, constraint_index=0)
        enclosures = sum(isinstance(r, InclusionRecord) for r in recs)
        model, _, _ = solve_problem(spec, recs)
        assert enclosures >= 25 and len(model.basis) >= 25
        calls = []
        key = Atom.key

        def counting(self):
            calls.append(1)
            return key(self)

        monkeypatch.setattr(Atom, "key", counting)
        detect_saturated(model, recs, tol_sat=1e-6)
        assert len(calls) <= len(model.basis) + len(recs)


class TestBurstBall:
    def test_children_contract_and_cover_the_clipped_box(self):
        kern = GaussianKernel([0.5])
        op = SdpOperator.scalar(VAL)
        c = ShapeConstraint(((0.2, 0.8),), op, (0.3,))
        ball = InputBall((0.5,), 0.05, "max")
        kwargs = dict(n_x=50, n_u=20, seed=0, safety=0.0)
        eta_old = eta_for(kern, op, ball.center, ball.radius, norm=ball.norm,
                          **kwargs)
        gamma = 0.6
        children = _burst("ball", kern, c, ball, eta_old, gamma, **kwargs)
        assert children
        for child in children:
            assert child.radius <= gamma * ball.radius + 1e-12
            eta_new = eta_for(kern, op, child.center, child.radius,
                              norm=child.norm, **kwargs)
            assert eta_new <= gamma * eta_old * (1 + 1e-6) + 1e-9
        # Every point of the parent ball (inside the region) lies in a child.
        for x in np.linspace(0.45, 0.55, 101):
            assert any(abs(x - ch.center[0]) <= ch.radius + 1e-12
                       for ch in children)

    def test_clipping_respects_region_boundary(self):
        kern = GaussianKernel([0.5])
        op = SdpOperator.scalar(VAL)
        c = ShapeConstraint(((0.2, 0.8),), op, (0.3,))
        ball = InputBall((0.22,), 0.05, "max")  # sticks out on the left
        kwargs = dict(n_x=50, n_u=20, seed=0, safety=0.0)
        eta_old = eta_for(kern, op, ball.center, ball.radius, norm=ball.norm,
                          **kwargs)
        children = _burst("ball", kern, c, ball, eta_old, 0.6, **kwargs)
        for child in children:
            assert child.center[0] - child.radius >= 0.2 - 1e-12
            assert child.center[0] + child.radius <= 0.27 + 1e-12


def ref_clip_box(region, center, radius):
    return [
        (max(lo, c - radius), min(hi, c + radius))
        for (lo, hi), c in zip(region, center)
    ]


def ref_refine_radius(kernel, op, z, eta_target, delta_hi, norm="max",
                      n_x=50, n_u=20, seed=0, safety=0.0):
    """The ball scheme's former radius search, kept as the reference."""
    def f(delta):
        return eta_for(kernel, op, z, delta, norm=norm, n_x=n_x, n_u=n_u,
                       seed=seed, safety=safety)
    if f(delta_hi) <= eta_target:
        return float(delta_hi)
    lo, hi = 0.0, float(delta_hi)
    tol = 1e-6 * float(delta_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= eta_target:
            lo = mid
        else:
            hi = mid
    return lo


def ref_burst_ball(kernel, op, constraint, ball, eta_old, gamma,
                   eta_kwargs):
    """The ball scheme's former burst, kept as the reference."""
    refined = ref_refine_radius(kernel, op, ball.center, gamma * eta_old,
                                ball.radius, norm=ball.norm, **eta_kwargs)
    delta_new = max(min(refined, gamma * ball.radius), 1e-12)
    sub_box = ref_clip_box(constraint.region, ball.center, ball.radius)
    return cover_box(sub_box, delta_new, norm=ball.norm)


def ref_burst_omega(kernel, functional, constraint, ball, elem, gamma, n_x,
                    seed, safety):
    """The hyp scheme's former burst (which read ``ball`` from the
    element), kept as the reference."""
    target = gamma * elem.diameter_bound
    lo, hi = 0.0, float(ball.radius)
    tol = 1e-6 * ball.radius
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        (probe,) = omega_cover(kernel, functional,
                               [InputBall(ball.center, mid, ball.norm)],
                               n_x=n_x, seed=seed, safety=safety)
        if probe.diameter_bound <= target:
            lo = mid
        else:
            hi = mid
    delta_new = min(lo if lo > 0 else 0.5 * ball.radius,
                    gamma * ball.radius)
    delta_new = max(delta_new, 1e-12)
    sub_box = ref_clip_box(constraint.region, ball.center, ball.radius)
    return cover_box(sub_box, delta_new, norm=ball.norm)


#: catenary's floor (closed-form widths of the Laplacian kernel) and a
#: Gaussian first-derivative floor (sampled widths)
BURST_CASES = {
    "laplacian-value": (LaplacianKernel(5.0, dim=1), VAL),
    "gaussian-derivative": (GaussianKernel([0.5]),
                            DiffFunctional.partial(1, axis=0)),
}


@pytest.fixture
def cuts(monkeypatch):
    """(box, radius) of every ``cover_box`` call of ``_burst`` and of the
    reference bursts above, in call order."""
    calls = []

    def spy(box, delta_max, norm="max", cover=cover_box):
        calls.append((box, delta_max))
        return cover(box, delta_max, norm=norm)

    monkeypatch.setattr(importlib.import_module("shapekernel.soap"),
                        "cover_box", spy)
    monkeypatch.setitem(globals(), "cover_box", spy)
    return calls


class TestBurst:
    @pytest.mark.parametrize("case", sorted(BURST_CASES))
    @pytest.mark.parametrize("center", [0.5, 0.22])
    @pytest.mark.parametrize("safety", [0.0, 0.05])
    def test_matches_the_former_bursts(self, case, center, safety, cuts):
        # the same children, cut at the same radius, bit for bit
        kern, func = BURST_CASES[case]
        op = SdpOperator.scalar(func)
        c = ShapeConstraint(((0.2, 0.8),), op, (0.5,))
        ball = InputBall((center,), 0.01, "max")
        kwargs = dict(n_x=50, n_u=20, seed=3, safety=safety)
        eta = eta_for(kern, op, ball.center, ball.radius, norm=ball.norm,
                      **kwargs)
        ball_children = _burst("ball", kern, c, ball, eta, 0.8, **kwargs)
        assert ball_children == ref_burst_ball(kern, op, c, ball, eta, 0.8,
                                               kwargs)
        (elem,) = omega_cover(kern, func, [ball], n_x=50, seed=3,
                              safety=safety)
        hyp_children = _burst("hyp", kern, c, ball, elem, 0.8, **kwargs)
        assert hyp_children == ref_burst_omega(kern, func, c, ball, elem,
                                               0.8, n_x=50, seed=3,
                                               safety=safety)
        assert len(ball_children) > 1 and len(hyp_children) > 1
        assert len(cuts) == 4
        assert cuts[0] == cuts[1] and cuts[2] == cuts[3]

    def test_matches_analytic_inverse(self, cuts):
        # For the unit Gaussian, eta(d) = sqrt(2 - 2 exp(-d^2/2)) inverts to
        # d = sqrt(-2 log(1 - eta^2/2)); the target is gamma * width.
        k = GaussianKernel([1.0])
        op = SdpOperator.scalar(VAL)
        c = ShapeConstraint(((-1.0, 1.0),), op, (0.0,))
        ball = InputBall((0.0,), 1.0, "max")
        for gamma in (0.5, 0.25):
            target = 0.3
            _burst("ball", k, c, ball, target / gamma, gamma, n_x=50,
                   n_u=20, seed=0, safety=0.0)
            want = math.sqrt(-2 * math.log(1 - target**2 / 2))
            _, got = cuts.pop()
            assert got == pytest.approx(min(want, gamma * ball.radius),
                                        abs=2e-6)
            assert eta_for(k, op, [0.0], got) <= target + 1e-9


class TestRunSoapValidation:
    def test_gamma_range(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError, match="gamma must lie strictly"):
                run_soap(step_spec(), gamma=bad)

    def test_positive_initial_radius(self):
        with pytest.raises(ValueError, match="initial radius"):
            run_soap(step_spec(), delta0=0.0)

    def test_positive_saturation_tolerance(self):
        # a negative tolerance used to stop at "no saturation" in round 0
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="saturation tolerance"):
                run_soap(step_spec(), tol_sat=bad)

    def test_unknown_mode(self):
        for bad in ("fancy", "omega"):
            with pytest.raises(ValueError, match="unknown soap mode"):
                run_soap(step_spec(), mode=bad)

    def test_omega_mode_rejects_matrix_constraints(self):
        der = DiffFunctional.partial(1, axis=0)
        op = SdpOperator(((VAL, der), (der, VAL)))
        c = ShapeConstraint(((0.2, 0.8),), op, (0.0, 0.0))
        spec = ProblemSpec(kernel=GaussianKernel([0.5]),
                           observations=[Observation(VAL, (0.3,), 0.5)],
                           loss="squared", regularizer=Ridge(0.05),
                           constraints=[c])
        with pytest.raises(ValueError, match="scalar constraints"):
            run_soap(spec, mode="hyp")


@pytest.fixture(scope="module")
def ball_run():
    spec = step_spec()
    model, state = run_soap(spec, mode="ball", gamma=0.7, k_max=6,
                            delta0=0.05, tol_sat=1e-6, seed=0)
    return spec, model, state


class TestRunSoapBall:
    def test_runs_to_iteration_budget(self, ball_run):
        _, model, state = ball_run
        assert state.stopped_reason == "k_max reached"
        assert state.iteration == 6
        assert state.model is model

    def test_history_rows_schema(self, ball_run):
        _, _, state = ball_run
        rows = state.history
        assert len(rows) == 7
        for k, row in enumerate(rows):
            assert set(row) == {"k", "M_total", "v", "status", "stop_reason",
                                "iterations", "trace", "bursts", "maxEta",
                                "wallTime"}
            assert row["iterations"] >= 1
            assert len(row["trace"]) == row["iterations"]
            assert row["k"] == k
            assert row["bursts"] >= 1
            assert row["wallTime"] >= 0.0

    def test_refinement_grows_cover_and_relaxes_value(self, ball_run):
        _, _, state = ball_run
        rows = state.history
        assert rows[0]["M_total"] == 6  # uniform cover of [0.2, 0.8] at 0.05
        assert rows[-1]["M_total"] > rows[0]["M_total"]
        assert rows[-1]["M_total"] == state.total_elements()
        # Smaller buffers can only weaken the tightening.
        assert rows[-1]["v"] < rows[0]["v"]
        for prev, nxt in zip(rows, rows[1:]):
            assert nxt["maxEta"] <= prev["maxEta"] * (1 + 1e-9)

    def test_final_model_feasible_on_dense_grid(self, ball_run):
        spec, model, _ = ball_run
        report = verify_pointwise(model, spec.constraints[0], grid_res=400)
        assert report["maxViolation"] <= 1e-8

    def test_refinement_concentrates_where_the_floor_binds(self, ball_run):
        _, _, state = ball_run
        balls = state.coverings[0]
        radii = sorted({round(b.radius, 10) for b in balls})
        assert min(radii) < 0.05 / 4  # several contraction levels deep
        # The floor is slack under the high right-hand targets: those balls
        # must never have burst.
        right = [b for b in balls if b.center[0] > 0.65]
        assert right
        assert all(b.radius == pytest.approx(0.05) for b in right)

    def test_stops_when_nothing_saturates(self):
        spec = step_spec()
        low = ShapeConstraint(((0.2, 0.8),), SdpOperator.scalar(VAL),
                              (-10.0,))
        spec = ProblemSpec(kernel=spec.kernel, observations=spec.observations,
                           loss="squared", regularizer=Ridge(0.01),
                           constraints=[low])
        model, state = run_soap(spec, mode="ball", gamma=0.7, k_max=6,
                                delta0=0.05, tol_sat=1e-6, seed=0)
        assert state.stopped_reason == "no saturation"
        assert len(state.history) == 1
        assert state.history[0]["bursts"] == 0
        assert model is state.model

    def test_element_budget_stops_the_loop(self):
        model, state = run_soap(step_spec(), mode="ball", gamma=0.7,
                                k_max=6, delta0=0.01, tol_sat=1e-6, seed=0,
                                max_elements=10)
        assert state.stopped_reason == "element budget reached"
        assert len(state.history) == 1
        assert state.total_elements() >= 10
        assert model is not None


class TestRunSoapOmega:
    def test_refines_and_stays_feasible(self):
        spec = step_spec()
        model, state = run_soap(spec, mode="hyp", gamma=0.7, k_max=3,
                                delta0=0.05, tol_sat=1e-6, seed=0)
        rows = state.history
        assert state.stopped_reason == "k_max reached"
        assert rows[0]["M_total"] == 6
        assert rows[-1]["M_total"] > rows[0]["M_total"]
        assert rows[-1]["v"] < rows[0]["v"]
        assert len(state.widths[0]) == len(state.coverings[0])
        for ball, elem in zip(state.coverings[0], state.widths[0]):
            assert isinstance(elem, OmegaElement)
            assert len(elem.balls) == 1
            assert len(elem.halfspaces) == 1
            assert elem.halfspaces[0][0].x == ball.center
        report = verify_pointwise(model, spec.constraints[0], grid_res=400)
        assert report["maxViolation"] <= 1e-8

    def test_diameter_bound_shrinks_on_burst_elements(self):
        spec = step_spec()
        _, state = run_soap(spec, mode="hyp", gamma=0.7, k_max=3,
                            delta0=0.05, tol_sat=1e-6, seed=0)
        rows = state.history
        for prev, nxt in zip(rows, rows[1:]):
            assert nxt["maxEta"] <= prev["maxEta"] * (1 + 1e-9)


class TestSoapInfeasible:
    def test_contradictory_pin_raises_at_first_iterate(self):
        kern = GaussianKernel([0.5])
        c = ShapeConstraint(((0.4, 0.6),), SdpOperator.scalar(VAL), (0.4,))
        spec = ProblemSpec(kernel=kern,
                           equalities=[Equality(VAL, (0.5,), -1.0)],
                           loss="none", regularizer=NormMin(),
                           constraints=[c])
        with pytest.raises(SoapInfeasible,
                           match="initial covering already infeasible"):
            run_soap(spec, mode="ball", delta0=0.05, k_max=3)

    def test_exception_carries_the_loop_state(self):
        kern = GaussianKernel([0.5])
        c = ShapeConstraint(((0.4, 0.6),), SdpOperator.scalar(VAL), (0.4,))
        spec = ProblemSpec(kernel=kern,
                           equalities=[Equality(VAL, (0.5,), -1.0)],
                           loss="none", regularizer=NormMin(),
                           constraints=[c])
        with pytest.raises(SoapInfeasible) as err:
            run_soap(spec, mode="ball", delta0=0.05, k_max=3)
        state = err.value.state
        assert state.mode == "ball"
        assert state.coverings and state.coverings[0]
        assert state.model is None

    def test_pickles_with_its_state(self):
        # a run in a worker process sends its failure back pickled
        state = SoapState(mode="hyp", iteration=3, widths=[[0.5]],
                          stopped_reason="x")
        err = pickle.loads(pickle.dumps(SoapInfeasible("m", state)))
        assert isinstance(err, SoapInfeasible)
        assert str(err) == "m"
        assert err.state == state


class TestWarmStart:
    def test_coefficients_map_to_identical_program_slacks(self, monkeypatch):
        spec = step_spec()
        c = spec.constraints[0]
        pts = [b.center for b in cover_box(c.region, 0.05, norm="max")]
        recs = discretize(c, pts, constraint_index=0)
        model, _, _ = solve_problem(spec, recs)
        # The solver's starting point, mapped from the model's coefficients
        # into whitened program coordinates, must reproduce its slacks.
        assemble_module = importlib.import_module("shapekernel.assemble")
        conic_solve = assemble_module.solve
        seen = {}

        def spy(prog, settings=None, x0=None):
            seen["prog"], seen["x0"] = prog, x0
            return conic_solve(prog, settings=settings, x0=x0)

        monkeypatch.setattr(assemble_module, "solve", spy)
        warm, _, _ = solve_problem(spec, recs, warm=model)
        rows = nonneg_row_slacks(seen["prog"], seen["x0"])
        for rec in recs:
            assert rows[tuple(rec.provenance)] == pytest.approx(
                record_slack(model, rec), abs=1e-7)
        assert warm.norm == pytest.approx(model.norm, rel=1e-6)


class TestSoapState:
    def test_total_elements_sums_all_constraints(self):
        state = SoapState(mode="ball", coverings=[[1, 2, 3], [4]])
        assert state.total_elements() == 4
