import numpy as np
import pytest

from cqmac.channels import (
    CompoundSet,
    CqChannel,
    KrausChannel,
    channel_tensor,
    dephasing_channel,
    erasure_channel,
    identity_channel,
)
from cqmac.qmatrix import maximally_entangled
from oracles import depolarizing_channel


@pytest.fixture
def kraus_validations(monkeypatch) -> list:
    """Every KrausChannel validated from here on, in construction order."""
    seen = []
    validate = KrausChannel.__post_init__

    def counted(self):
        seen.append(self)
        validate(self)

    monkeypatch.setattr(KrausChannel, "__post_init__", counted)
    return seen


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def identity_qmac() -> KrausChannel:
    return channel_tensor(identity_channel(2), identity_channel(2))


@pytest.fixture
def dephasing_qmac() -> KrausChannel:
    return channel_tensor(identity_channel(2), dephasing_channel(full=True))


@pytest.fixture
def mild_dephasing_qmac() -> KrausChannel:
    return channel_tensor(identity_channel(2), dephasing_channel(0.1))


@pytest.fixture
def depolarizing_qmac() -> KrausChannel:
    """The completely depolarizing map on (A, B) -> C = A B: no rate for either sender."""
    return KrausChannel(depolarizing_channel(4).kraus_ops, (2, 2), (4,))


@pytest.fixture
def erasure_qmac() -> KrausChannel:
    return channel_tensor(identity_channel(2), erasure_channel(2, 0.5))


@pytest.fixture
def basis_v() -> CqChannel:
    return CqChannel.basis(2)


@pytest.fixture
def bell_psi():
    return maximally_entangled(2)


@pytest.fixture
def uniform_p():
    return np.array([0.5, 0.5])


@pytest.fixture
def id_deph_set(identity_qmac, dephasing_qmac) -> CompoundSet:
    return CompoundSet((identity_qmac, dephasing_qmac), ("id", "dephB"))


@pytest.fixture
def dephrasure_set() -> CompoundSet:
    """Identity on A and, on B, dephrasure with p = 0.10, q = 0.35: dephasing
    with probability p, then erasure to |2> with probability q (Leditzky, Leung
    and Smith, PRL 121, 160501, 2018). Its coherent information is negative at
    the maximally entangled input and positive at a less entangled one."""
    p, q = 0.10, 0.35
    embed = np.eye(3, 2)
    erase = np.zeros((2, 3, 2))
    erase[0, 2, 0] = erase[1, 2, 1] = np.sqrt(q)
    ops = [np.sqrt((1 - p) * (1 - q)) * embed, np.sqrt(p * (1 - q)) * embed @ np.diag([1, -1]),
           *erase]
    dephrasure = KrausChannel(ops, (2,), (3,))
    return CompoundSet((channel_tensor(identity_channel(2), dephrasure),), ("dephrasure",))


@pytest.fixture
def replacement_pair() -> CompoundSet:
    """Two replacement channels (2 x 2 -> 4), one preparing |0>, one |1>:
    their Choi matrices I (x) |k><k| are 8 apart in trace norm, the largest
    distance of two channels with a 4-dimensional input."""
    ops = np.zeros((2, 4, 4, 4))
    ops[0, np.arange(4), 0, np.arange(4)] = ops[1, np.arange(4), 1, np.arange(4)] = 1.0
    return CompoundSet(tuple(KrausChannel(k, (2, 2), (4,)) for k in ops), ("r0", "r1"))
