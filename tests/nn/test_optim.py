"""Optimizer tests: convergence on quadratics, error handling."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Parameter, Tensor, grad
from tests.nn.oracle import ReferenceAdam


def quadratic_loss(p: Parameter, target: np.ndarray):
    diff = p - Tensor(target)
    return (diff * diff).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        target = np.array([3.0, -2.0])
        p = Parameter(np.zeros(2))
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            loss = quadratic_loss(p, target)
            opt.step(grad(loss, [p]))
        assert np.allclose(p.data, target, atol=1e-4)

    def test_momentum_accelerates(self):
        target = np.array([5.0])
        histories = {}
        for momentum in (0.0, 0.9):
            p = Parameter(np.zeros(1))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.step(grad(quadratic_loss(p, target), [p]))
            histories[momentum] = abs(p.data[0] - 5.0)
        assert histories[0.9] < histories[0.0]

    def test_empty_params_raises(self):
        with pytest.raises(ValueError, match="empty parameter list"):
            SGD([], lr=0.1)

    def test_grad_length_mismatch_raises(self):
        opt = SGD([Parameter(np.zeros(2))], lr=0.1)
        with pytest.raises(ValueError, match="length mismatch"):
            opt.step([])

    def test_none_grad_skipped(self):
        p = Parameter(np.ones(2))
        SGD([p], lr=0.1).step([None])
        assert np.allclose(p.data, 1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        target = np.array([1.0, 2.0, 3.0])
        p = Parameter(np.zeros(3))
        opt = Adam([p], lr=0.05)
        for _ in range(500):
            opt.step(grad(quadratic_loss(p, target), [p]))
        assert np.allclose(p.data, target, atol=1e-3)

    def test_bias_correction_first_step(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=0.1, betas=(0.9, 0.999))
        opt.step([Tensor(np.array([1.0]))])
        # With bias correction the first step is ~ lr * sign(grad).
        assert np.isclose(p.data[0], -0.1, atol=1e-6)

    def test_accepts_numpy_grads(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        opt.step([np.array([1.0, -1.0])])
        assert p.data[0] < 0 < p.data[1]

    def test_handles_multiple_params(self):
        a = Parameter(np.zeros(2))
        b = Parameter(np.zeros(3))
        opt = Adam([a, b], lr=0.1)
        loss = (a * a).sum() + ((b - Tensor(np.ones(3))) ** 2).sum()
        opt.step(grad(loss, [a, b]))
        assert np.all(b.data > 0)

    def test_trains_tiny_network(self):
        from repro.nn import MLP
        from repro.nn import functional as F
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 2))
        y = (x[:, :1] * 2 - x[:, 1:] * 3 + 1)
        net = MLP(2, [16], 1, rng=rng)
        opt = Adam(net.parameters(), lr=1e-2, betas=(0.9, 0.999))
        first = None
        for _ in range(300):
            loss = F.mse_loss(net(Tensor(x)), Tensor(y))
            if first is None:
                first = loss.item()
            opt.step(grad(loss, net.parameters()))
        assert loss.item() < first * 0.05


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        from repro.nn.optim import clip_grad_norm
        g = [np.array([3.0, 4.0])]  # norm 5
        before = clip_grad_norm(g, max_norm=1.0)
        assert before == pytest.approx(5.0)
        assert np.allclose(g[0], [0.6, 0.8])

    def test_leaves_small_gradients(self):
        from repro.nn.optim import clip_grad_norm
        g = [np.array([0.3, 0.4])]
        clip_grad_norm(g, max_norm=10.0)
        assert np.allclose(g[0], [0.3, 0.4])

    def test_global_norm_across_params(self):
        from repro.nn.optim import clip_grad_norm
        g = [np.array([3.0]), np.array([4.0])]
        clip_grad_norm(g, max_norm=1.0)
        assert np.allclose(g[0], [0.6]) and np.allclose(g[1], [0.8])

    def test_skips_none(self):
        from repro.nn.optim import clip_grad_norm
        assert clip_grad_norm([None, np.array([1.0])], 10.0) == 1.0

    def test_invalid_norm(self):
        from repro.nn.optim import clip_grad_norm
        with pytest.raises(ValueError):
            clip_grad_norm([np.ones(2)], 0.0)


class TestStepLR:
    def test_decays_on_schedule(self):
        from repro.nn import StepLR
        opt = Adam([Parameter(np.zeros(1))], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = [sched.step() for _ in range(4)]
        assert lrs == pytest.approx([1.0, 0.1, 0.1, 0.01])

    def test_validation(self):
        from repro.nn import StepLR
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        with pytest.raises(ValueError):
            StepLR(opt, step_size=0)
        with pytest.raises(ValueError):
            StepLR(opt, step_size=1, gamma=0.0)


class TestOptimizerStateDict:
    def test_adam_round_trip_preserves_moments(self):
        target = np.array([1.0, -2.0])
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.05)
        for _ in range(10):
            opt.step(grad(quadratic_loss(p, target), [p]))
        state = opt.state_dict()
        assert state["t"] == 10

        q = Parameter(p.data.copy())
        fresh = Adam([q], lr=0.9)  # wrong hyper-params on purpose
        fresh.load_state_dict(state)
        assert fresh.lr == opt.lr and fresh._t == opt._t
        for a, b in zip(fresh._m, opt._m):
            assert np.array_equal(a, b)
        # Identical next step from identical state.
        opt.step(grad(quadratic_loss(p, target), [p]))
        fresh.step(grad(quadratic_loss(q, target), [q]))
        assert np.array_equal(p.data, q.data)

    def test_state_dict_is_a_copy(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.05)
        opt.step([np.ones(2)])
        state = opt.state_dict()
        state["m"][0][:] = 99.0
        assert not np.array_equal(opt._m[0], state["m"][0])

    def test_sgd_round_trip_preserves_velocity(self):
        p = Parameter(np.zeros(2))
        opt = SGD([p], lr=0.1, momentum=0.9)
        opt.step([np.array([1.0, -1.0])])
        state = opt.state_dict()
        q = Parameter(np.zeros(2))
        fresh = SGD([q], lr=0.5)
        fresh.load_state_dict(state)
        assert fresh.momentum == 0.9
        assert np.array_equal(fresh._velocity[0], opt._velocity[0])

    def test_moment_count_mismatch_rejected(self):
        opt = Adam([Parameter(np.zeros(2))], lr=0.1)
        state = opt.state_dict()
        state["m"] = state["m"] + [np.zeros(2)]
        with pytest.raises(ValueError, match="2 arrays"):
            opt.load_state_dict(state)

    def test_moment_shape_mismatch_rejected(self):
        opt = Adam([Parameter(np.zeros(2))], lr=0.1)
        state = opt.state_dict()
        state["v"] = [np.zeros(3)]
        with pytest.raises(ValueError, match="shape"):
            opt.load_state_dict(state)


class TestAdamMatchesPerParameterOracle:
    """Adam against :class:`tests.nn.oracle.ReferenceAdam`, bit for bit:
    parameters and both moments after every step."""

    SHAPES = [(3, 4), (5,), (), (2, 3, 2), (1,)]

    def _pair(self, seed, **kwargs):
        rng = np.random.default_rng(seed)
        values = [rng.normal(size=shape) for shape in self.SHAPES]
        params = [Parameter(v.copy()) for v in values]
        ref_params = [Parameter(v.copy()) for v in values]
        return (Adam(params, **kwargs), params,
                ReferenceAdam(ref_params, **kwargs), ref_params)

    @staticmethod
    def _grads(rng, shapes, drop=0.3):
        grads = []
        for i, shape in enumerate(shapes):
            if rng.random() < drop:
                grads.append(None)
                continue
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3)
            grads.append(Tensor(g) if i % 2 else g)
        return grads

    def _assert_same(self, opt, params, ref, ref_params):
        for i, (p, q) in enumerate(zip(params, ref_params)):
            assert p.data.tobytes() == q.data.tobytes(), f"param {i}"
            assert opt._m[i].tobytes() == ref.m[i].tobytes(), f"m {i}"
            assert opt._v[i].tobytes() == ref.v[i].tobytes(), f"v {i}"
        assert opt._t == ref.t

    def _run(self, rng, opt, params, ref, ref_params, steps, drop=0.3):
        for _ in range(steps):
            grads = self._grads(rng, self.SHAPES, drop)
            opt.step(grads)
            ref.step(grads)
            self._assert_same(opt, params, ref, ref_params)

    def test_random_gradients_with_none_entries(self):
        rng = np.random.default_rng(0)
        pair = self._pair(1, lr=0.01, betas=(0.9, 0.999))
        self._run(rng, *pair, steps=12)
        self._run(rng, *pair, steps=1, drop=1.0)   # every gradient None
        self._run(rng, *pair, steps=3, drop=0.0)

    def test_after_load_state_dict(self):
        rng = np.random.default_rng(2)
        opt, params, ref, ref_params = self._pair(3, lr=0.02)
        self._run(rng, opt, params, ref, ref_params, steps=5)
        state = opt.state_dict()
        fresh_params = [Parameter(p.data.copy()) for p in params]
        fresh = Adam(fresh_params, lr=0.5, betas=(0.1, 0.2), eps=1.0)
        fresh.load_state_dict(state)
        ref.load_state_dict(state)
        self._assert_same(fresh, fresh_params, ref, ref_params)
        self._run(rng, fresh, fresh_params, ref, ref_params, steps=6)
        # The state it was loaded from is a copy, not a live view.
        assert not np.array_equal(state["m"][0], fresh._m[0])

    def test_after_parameter_data_reassignment(self):
        rng = np.random.default_rng(4)
        opt, params, ref, ref_params = self._pair(5, lr=0.03)
        self._run(rng, opt, params, ref, ref_params, steps=4)
        for p, q in zip(params, ref_params):
            value = rng.normal(size=p.data.shape)
            p.data = value.copy()
            q.data = value.copy()
        self._run(rng, opt, params, ref, ref_params, steps=4)
