import pytest
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
