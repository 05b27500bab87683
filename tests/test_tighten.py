"""Constraint reductions: pointwise rows, buffered anchors, enclosures.

Slack semantics are re-derived with apply_functional / dense numpy grids;
the two guaranteed reductions are cross-checked against each other on the
cases where they must coincide.
"""

import math

import numpy as np
import pytest

from shapekernel import tighten
from shapekernel import (
    AnchorRecord,
    Atom,
    DiffFunctional,
    GaussianKernel,
    InclusionRecord,
    InputBall,
    Model,
    OmegaElement,
    SdpOperator,
    ShapeConstraint,
    relax_records,
    cover_box,
    eta_for,
    omega_cover,
    tighten_omega,
    tighten_soc,
    discretize,
    verify_pointwise,
)


@pytest.fixture
def kernel():
    return GaussianKernel([1.0])


def scalar_constraint(offset=0.0, bias_map=(), region=((0.0, 1.0),),
                      order=0):
    if order == 0:
        D = DiffFunctional.value(1)
    else:
        D = DiffFunctional.partial(1, axis=0, order=order)
    return ShapeConstraint(
        region=region,
        operator=SdpOperator.scalar(D),
        offset=(offset,),
        bias_map=bias_map,
    )


def matrix_constraint():
    val = DiffFunctional.value(1)
    der = DiffFunctional.partial(1, axis=0)
    op = SdpOperator(((val, der), (der, val)))
    return ShapeConstraint(
        region=((0.0, 1.0),),
        operator=op,
        offset=(0.0, 0.0),
    )


class TestShapeConstraint:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="offset length"):
            ShapeConstraint(
                region=((0.0, 1.0),),
                operator=SdpOperator.scalar(DiffFunctional.value(1)),
                offset=(0.0, 1.0),
            )
        with pytest.raises(ValueError, match="hi < lo"):
            scalar_constraint(region=((1.0, 0.0),))
        with pytest.raises(ValueError, match="bias_map row count"):
            ShapeConstraint(
                region=((0.0, 1.0),),
                operator=SdpOperator.scalar(DiffFunctional.value(1)),
                offset=(0.0,),
                bias_map=((1.0,), (2.0,)),
            )

    def test_gamma_and_bias_dim(self):
        c = scalar_constraint(bias_map=((1.0, -2.0),))
        assert c.bias_dim == 2
        np.testing.assert_array_equal(c.gamma(), [[1.0, -2.0]])
        assert scalar_constraint().bias_dim == 0
        assert scalar_constraint().gamma().shape == (1, 0)

    def test_contains(self):
        c = scalar_constraint(region=((0.2, 0.8),))
        assert c.contains([0.5])
        assert c.contains([0.2])
        assert not c.contains([0.1])



class TestDiscretize:
    def test_scalar_records(self):
        c = scalar_constraint(offset=0.5,
                              bias_map=((2.0,),), order=1)
        recs = discretize(c, [[0.25], [0.75]], constraint_index=3)
        assert len(recs) == 2
        r = recs[0]
        assert isinstance(r, AnchorRecord)
        assert r.size == 1
        (atom,), = r.atoms
        assert atom.x == (0.25,)
        assert atom.functional == DiffFunctional.partial(1, axis=0)
        assert r.eta == 0.0
        assert r.gamma == ((2.0,),)
        assert r.offset == (0.5,)
        assert r.provenance == (3, 0)
        assert recs[1].provenance == (3, 1)

    def test_point_outside_region_rejected(self):
        c = scalar_constraint()
        with pytest.raises(ValueError, match="outside region"):
            discretize(c, [[1.5]])

    def test_matrix_records_have_zero_buffer(self):
        c = matrix_constraint()
        recs = discretize(c, [[0.5]])
        (r,) = recs
        assert isinstance(r, AnchorRecord)
        assert r.size == 2
        assert r.eta == 0.0
        assert r.atoms[0][1] == r.atoms[1][0]
        assert r.offset == (0.0, 0.0)

    def test_large_operators_need_external_solver(self):
        val = DiffFunctional.value(1)
        op = SdpOperator(tuple(tuple(val for _ in range(3))
                               for _ in range(3)))
        c = ShapeConstraint(region=((0.0, 1.0),), operator=op,
                            offset=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="rotated second-order cones"):
            discretize(c, [[0.5]])


class TestTightenSoc:
    def test_buffered_records(self, kernel):
        c = scalar_constraint(offset=0.5)
        cover = cover_box([(0.0, 1.0)], 0.05)
        etas = [eta_for(kernel, c.operator, b.center, b.radius,
                        norm=b.norm) for b in cover]
        recs = tighten_soc(c, cover, etas, constraint_index=1)
        assert len(recs) == len(cover)
        for m, (rec, ball) in enumerate(zip(recs, cover)):
            assert isinstance(rec, AnchorRecord)
            assert rec.atoms[0][0].x == ball.center
            assert rec.eta == etas[m]
            assert rec.offset == (0.5,)
            assert rec.provenance == (1, m)

    def test_eta_count_mismatch_rejected(self):
        c = scalar_constraint()
        cover = cover_box([(0.0, 1.0)], 0.1)
        with pytest.raises(ValueError, match="one buffer width per"):
            tighten_soc(c, cover, [0.1])

    def test_anchor_outside_region_rejected(self):
        c = scalar_constraint(region=((0.0, 0.5),))
        with pytest.raises(ValueError, match="outside region"):
            tighten_soc(c, [InputBall((0.9,), 0.05)], [0.1])

    def test_matrix_constraint_keeps_eta(self):
        c = ShapeConstraint(
            region=((0.0, 1.0),),
            operator=matrix_constraint().operator,
            offset=(0.0, 0.0),
        )
        recs = tighten_soc(c, [InputBall((0.5,), 0.1)], [0.3])
        (r,) = recs
        assert isinstance(r, AnchorRecord)
        assert r.size == 2
        assert r.eta == 0.3

    def test_missing_eta_rejected(self):
        c = scalar_constraint()
        with pytest.raises(ValueError, match="missing buffer width"):
            tighten_soc(c, [InputBall((0.5,), 0.1)], [None])


class TestRelaxedTighteningIsDiscretization:
    """Zeroing the buffers of :func:`tighten_soc` gives exactly the records
    :func:`discretize` builds at the ball centers."""

    @staticmethod
    def check(c, cover):
        etas = [0.1 * (m + 1) for m in range(len(cover))]
        tight = tighten_soc(c, cover, etas, constraint_index=2)
        relaxed = discretize(c, [b.center for b in cover],
                             constraint_index=2)
        assert [r.eta for r in tight] == etas
        assert relax_records(tight) == relaxed

    def test_scalar_constraint(self):
        self.check(scalar_constraint(offset=0.3, bias_map=((1.0, -2.0),),
                                     order=1),
                   cover_box([(0.0, 1.0)], 0.1))

    def test_matrix_constraint(self):
        self.check(matrix_constraint(), cover_box([(0.0, 1.0)], 0.125))



class TestTightenOmega:
    def test_halfspace_elements_become_inclusion_records(self, kernel):
        c = scalar_constraint(offset=0.1, bias_map=((1.0,),))
        cover = [InputBall((0.3,), 0.2), InputBall((0.7,), 0.2)]
        elems = omega_cover(kernel, c.operator.entries[0][0], cover)
        recs = tighten_omega(c, elems, constraint_index=2)
        rho = math.exp(-0.5 * 0.2**2)
        for m, rec in enumerate(recs):
            assert isinstance(rec, InclusionRecord)
            assert rec.r0 == pytest.approx(1.0, rel=1e-12)
            assert rec.rho == pytest.approx(-rho, rel=1e-12)
            assert rec.normal.x == cover[m].center
            assert rec.diameter == pytest.approx(
                2 * math.sqrt(1 - rho**2), rel=1e-9
            )
            assert rec.provenance == (2, m)

    def test_matrix_constraint_rejected(self):
        c = ShapeConstraint(
            region=((0.0, 1.0),),
            operator=matrix_constraint().operator,
            offset=(0.0, 0.0),
        )
        with pytest.raises(ValueError, match="scalar"):
            tighten_omega(c, [])

    def test_general_inclusion_not_implemented(self):
        c = scalar_constraint()
        a = Atom((0.5,), DiffFunctional.value(1))
        elem = OmegaElement(
            balls=((a, 0.5),),
            halfspaces=((Atom((0.5,), DiffFunctional.value(1, beta=-1.0)),
                         -0.5),),
            diameter_bound=1.0,
        )
        with pytest.raises(ValueError, match="not implemented"):
            tighten_omega(c, [elem])

    def test_vacuous_origin_ball_rejected(self):
        c = scalar_constraint()
        elem = OmegaElement(balls=((None, 1.0),), halfspaces=(),
                            diameter_bound=2.0)
        with pytest.raises(ValueError, match="vacuous"):
            tighten_omega(c, [elem])


class TestRecordValidation:
    def test_negative_buffer_rejected(self):
        a = Atom((0.0,), DiffFunctional.value(1))
        with pytest.raises(ValueError, match="nonnegative"):
            AnchorRecord(atoms=((a,),), eta=-0.1, gamma=((),),
                         offset=(0.0,))
        with pytest.raises(ValueError, match="nonnegative"):
            AnchorRecord(atoms=((a, a), (a, a)), eta=-1.0,
                         gamma=((), ()), offset=(0.0, 0.0))

    def test_rsoc_block_shape_enforced(self):
        a = Atom((0.0,), DiffFunctional.value(1))
        for atoms in (((a, a),), ((a, a), (a,)),
                      ((a, a, a),) * 3, ()):
            with pytest.raises(ValueError, match="1x1 or 2x2"):
                AnchorRecord(atoms=atoms, eta=0.0, gamma=(), offset=())

    def test_anchor_outside_region_rejected(self):
        c = matrix_constraint()
        with pytest.raises(ValueError, match="outside region"):
            discretize(c, [[0.5], [1.2]])
        with pytest.raises(ValueError, match="outside region"):
            tighten_soc(c, [InputBall((-0.3,), 0.1)], [0.2])

    def test_infinite_halfspace_level_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            InclusionRecord(
                r0=1.0, normal=Atom((0.0,), DiffFunctional.value(1)),
                rho=math.inf, gamma=(), offset=0.0,
            )

    def test_inclusion_radius_positive(self):
        with pytest.raises(ValueError, match="positive"):
            InclusionRecord(
                r0=0.0, normal=Atom((0.0,), DiffFunctional.value(1)),
                rho=0.1, gamma=(), offset=0.0,
            )


class TestVerifyPointwise:
    def test_scalar_slack_against_dense_numpy(self, kernel):
        # f(x) = k(x - 0.5): a single bump.  Its minimum over [0, 1] is at
        # the edges, so the level-0.9 constraint is violated there.
        model = Model(kernel, (Atom((0.5,), DiffFunctional.value(1)),),
                      np.array([1.0]))
        c = scalar_constraint(offset=0.9)
        report = verify_pointwise(model, c, grid_res=2001)
        edge = math.exp(-0.125)
        assert report["minEig"] == pytest.approx(edge - 0.9, abs=1e-12)
        assert report["maxViolation"] == pytest.approx(0.9 - edge,
                                                       abs=1e-12)
        assert report["worstPoint"][0] in (0.0, 1.0)

        ok = verify_pointwise(model, scalar_constraint(offset=0.2),
                              grid_res=501)
        assert ok["maxViolation"] == 0.0
        assert ok["minEig"] > 0.0

    def test_bias_enters_affinely(self, kernel):
        model = Model(kernel, (Atom((0.5,), DiffFunctional.value(1)),),
                      np.array([1.0]), bias=np.array([0.3]))
        c = scalar_constraint(offset=0.9, bias_map=((1.0,),))
        report = verify_pointwise(model, c, grid_res=501)
        edge = math.exp(-0.125)
        assert report["minEig"] == pytest.approx(edge + 0.3 - 0.9,
                                                 abs=1e-10)

    def test_matrix_eigenvalues_against_numpy(self, kernel):
        # Slack matrix [[f, f'], [f', f]] has eigenvalues f +- |f'|.
        model = Model(kernel, (Atom((0.4,), DiffFunctional.value(1)),),
                      np.array([1.0]))
        c = matrix_constraint()
        report = verify_pointwise(model, c, grid_res=801)
        xs = np.linspace(0.0, 1.0, 801)
        f = np.exp(-0.5 * (xs - 0.4) ** 2)
        fp = -(xs - 0.4) * f
        want = (f - np.abs(fp)).min()
        assert report["minEig"] == pytest.approx(want, abs=1e-12)
        # the stacked eigensolve equals a per-point loop bit for bit
        X = xs.reshape(-1, 1)
        v = model.apply(c.operator.entries[0][0], X)
        d = model.apply(c.operator.entries[0][1], X)
        loop = [np.linalg.eigvalsh(np.array([[a, b], [b, a]]))[0]
                for a, b in zip(v, d)]
        assert report["minEig"] == min(loop)
        assert report["worstPoint"] == (xs[int(np.argmin(loop))],)

    @pytest.mark.parametrize("chunk", [64, 899, 900])
    def test_chunks_keep_the_one_shot_result(self, monkeypatch, chunk):
        # a 2x2 constraint on a 30 x 30 grid of a 2-D box, checked at once
        # and in chunks (the last one partial, or exactly the whole grid)
        rng = np.random.default_rng(4)
        val = DiffFunctional.value(2)
        dx = DiffFunctional.partial(2, axis=0)
        dy = DiffFunctional.partial(2, axis=1)
        c = ShapeConstraint(region=((0.0, 1.0), (-1.0, 2.0)),
                            operator=SdpOperator(((val, dx), (dx, dy))),
                            offset=(0.1, -0.2))
        kernel = GaussianKernel([0.7, 0.4])
        atoms = tuple(Atom(tuple(x), val) for x in rng.uniform(
            (0.0, -1.0), (1.0, 2.0), size=(6, 2)))
        for model in (Model(kernel, atoms, rng.normal(size=6)),
                      Model(kernel, (), np.zeros(0))):  # a tie everywhere
            one_shot = verify_pointwise(model, c, grid_res=30)
            with monkeypatch.context() as patch:
                patch.setattr(tighten, "VERIFY_CHUNK", chunk)
                chunked = verify_pointwise(model, c, grid_res=30)
            assert repr(chunked) == repr(one_shot)
        assert one_shot["worstPoint"] == (0.0, -1.0)

    def test_small_grid_rejected(self, kernel):
        model = Model(kernel, (), np.zeros(0))
        with pytest.raises(ValueError, match="at least 2"):
            verify_pointwise(model, scalar_constraint(), grid_res=1)
