import pytest
import scipy.linalg
import scipy.sparse.linalg

import enarkit.network as net


@pytest.fixture
def lanczos_path(monkeypatch):
    """Route every eigensolve above 16 rows through Lanczos; the returned
    list records each ``eigsh`` call made in this process."""
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counting_eigsh(*args, **kwargs):
        calls.append(kwargs.get("which"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(net, "DENSE_EIG_LIMIT", 16)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
    return calls


@pytest.fixture
def qr_calls(monkeypatch):
    """Count the pivoted QRs: the returned list records the shape of every
    ``scipy.linalg.qr`` call made in this process, which still runs."""
    calls = []
    qr = scipy.linalg.qr

    def counting_qr(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", counting_qr)
    return calls
