import pytest

from qct import galois


@pytest.fixture
def no_big_factoring(monkeypatch):
    """Make is_prime and factorize fail at once on an argument above
    SIZE_CAP, so a missing size check shows as an error, not a long run."""
    def guard(fn):
        def checked(n):
            if n > galois.SIZE_CAP:
                raise AssertionError(f"{fn.__name__}({n}) ran before the "
                                     "size check")
            return fn(n)
        return checked
    monkeypatch.setattr(galois, "is_prime", guard(galois.is_prime))
    monkeypatch.setattr(galois, "factorize", guard(galois.factorize))
