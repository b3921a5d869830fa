import numpy as np
import pytest

from latecut.network import op_counter


@pytest.fixture(autouse=True)
def _reset_op_counter():
    op_counter.reset()
    yield


@pytest.fixture
def nan_unfilled(monkeypatch):
    """Every ``aligned_empty`` buffer starts all NaN, its alignment padding
    included, and ``aligned_zeros`` raises: a value the caller did not
    write, or a zero-fill coming back, shows.  Returns the list of buffers
    handed out."""
    from latecut import formats, network

    allocate = network.aligned_empty
    buffers = []

    def nan_filled(size):
        buffer = allocate(size)
        buffer.base.fill(np.nan)  # the whole over-allocation
        buffers.append(buffer)
        return buffer

    def no_zeros(size):
        raise AssertionError("zero-filled a buffer that is written in full")

    for module in (network, formats):
        monkeypatch.setattr(module, "aligned_empty", nan_filled)
    monkeypatch.setattr(network, "aligned_zeros", no_zeros)
    return buffers


def zero_block(network, block_id):
    """Zero a block's whole residual branch, making it an exact identity."""
    block = network.blocks[block_id - 1]
    for tensor in (block.weight1, block.bias1, block.weight2, block.bias2):
        tensor[:] = 0.0


def make_gradcheck_case(seed, max_blocks=3, max_width=8):
    """Seeded network + batch + target whose relu pre-activations all sit
    at least 1e-3 from the kink, so central differences stay valid.
    Resamples with derived seeds until the margin holds."""
    from latecut.network import forward_trace, random_network

    rng = np.random.default_rng(seed)
    n_blocks = int(rng.integers(1, max_blocks + 1))
    width = int(rng.integers(2, max_width + 1))
    input_dim = int(rng.integers(2, 7))
    batch_size = int(rng.integers(2, 6))
    for attempt in range(50):
        sub = np.random.default_rng([seed, attempt])
        net = random_network(input_dim, width, n_blocks, 3, seed=int(sub.integers(1 << 30)))
        for block in net.blocks:
            block.bias1[:] = sub.normal(0.0, 0.3, block.bias1.shape)
            block.bias2[:] = sub.normal(0.0, 0.3, block.bias2.shape)
        batch = sub.standard_normal((batch_size, input_dim))
        trace = forward_trace(net, batch)
        margin = min(np.abs(trace.block_inputs[b.block_id] @ b.weight1 + b.bias1).min()
                     for b in net.blocks)
        if margin > 1e-3:
            target = trace.features + sub.standard_normal(trace.features.shape)
            return net, batch, target
    raise AssertionError(f"no kink-free gradcheck case found for seed {seed}")
