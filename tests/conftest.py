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
