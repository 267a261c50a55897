"""The whole-field arrays of the subfield layer against the per-element
loops they replaced, kept here as oracles: the modulus root search, the
embedding and its inverse, the trace, the trace Gram matrix, the dual basis
and the coordinate table of a basis, and the basis expansions built on
that table.  Every subfield pair with p^e <= 1024 is compared."""

import numpy as np
import pytest

from qct import galois, gflinalg, lincode
from qct.errors import CodeError, FieldError
from qct.families import rs_code
from qct.galois import (ExtensionBasis, build_field, find_dual_basis,
                        get_embedding, is_prime, standard_basis)
from qct.lincode import LinearCode, expand_basis, expand_with_parity

LIMIT = 1024


def subfield_pairs(limit):
    """(p, s, e) for every prime power p^e <= limit and every s | e."""
    out = []
    for p in filter(is_prime, range(2, limit + 1)):
        e = 1
        while p ** e <= limit:
            out += [(p, s, e) for s in range(1, e + 1) if e % s == 0]
            e += 1
    return out


PAIRS = subfield_pairs(LIMIT)
PROPER = [(p, s, e) for p, s, e in PAIRS if s < e]


def oracle_root(sub, ext):
    """The smallest extension element at which the subfield modulus
    vanishes, by evaluating it element by element."""
    for x in range(ext.order):
        acc, xp = 0, 1
        for c in sub.modulus:
            if c:
                acc = ext.add(acc, ext.mul(c % ext.p, xp))
            xp = ext.mul(xp, x)
        if acc == 0:
            return x
    return None


def oracle_up(sub, ext, root):
    """Subfield element -> extension element: its digits times root^t."""
    up = {}
    for a in range(sub.order):
        acc, rp = 0, 1
        for d in galois._digits(a, sub.p, sub.e):
            if d:
                acc = ext.add(acc, ext.mul(d, rp))
            rp = ext.mul(rp, root)
        up[a] = acc
    return up


def oracle_trace(x, sub, ext, down):
    """sum of x^(q^i), i < m, by scalar Frobenius steps, mapped down."""
    acc, t = 0, x
    for _ in range(ext.e // sub.e):
        acc = ext.add(acc, t)
        t = ext.pow(t, sub.order)
    return down[acc]


def oracle_gram(elements, ext, tr):
    m = len(elements)
    g = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i, m):
            g[i, j] = g[j, i] = tr[ext.mul(elements[i], elements[j])]
    return g


def oracle_dual(elements, sub, ext, up, tr):
    ginv = gflinalg.inv_matrix(oracle_gram(elements, ext, tr), sub)
    duals = []
    for j in range(len(elements)):
        acc = 0
        for i in range(len(elements)):
            c = int(ginv[i, j])
            if c:
                acc = ext.add(acc, ext.mul(up[c], elements[i]))
        duals.append(acc)
    return tuple(duals)


def oracle_table(elements, sub, ext, up):
    """Coordinates of every extension element: one GF(p) product of the
    inverse basis matrix with its digits per element."""
    p, m = ext.p, len(elements)
    prime = build_field(p, 1)
    cols = []
    for alpha in elements:
        for t in range(sub.e):
            val = ext.mul(up[p ** t], alpha)
            cols.append([(val // p ** i) % p for i in range(ext.e)])
    ainv = gflinalg.inv_matrix(np.array(cols, dtype=np.int64).T, prime)
    table = np.zeros((ext.order, m), dtype=np.int64)
    pe = np.array([p ** i for i in range(ext.e)], dtype=np.int64)
    for x in range(ext.order):
        digs = (x // pe) % p
        coords = (ainv @ digs) % p
        for i in range(m):
            v = 0
            for t in reversed(range(sub.e)):
                v = v * p + int(coords[i * sub.e + t])
            table[x, i] = v
    return table


def oracle_expand(code, elements, sub, table, parity):
    """Rows b.r, each symbol replaced by its table row and, with parity,
    by the negated sum of that row."""
    if parity:
        sums = []
        for x in range(len(table)):
            s = 0
            for c in table[x]:
                s = sub.add(s, int(c))
            sums.append(sub.neg(s))
        table = np.column_stack([table, sums])
    rows = [table[code.field.vmul(b, r)].reshape(-1)
            for r in code.matrix for b in elements]
    return LinearCode(sub, rows)


def pair_ids(pairs):
    return [f"{p}^{s}<{p}^{e}" for p, s, e in pairs]


@pytest.mark.parametrize("p,s,e", PAIRS, ids=pair_ids(PAIRS))
def test_subfield_arrays_match_scalar_oracles(p, s, e):
    sub, ext = build_field(p, s), build_field(p, e)
    emb = get_embedding(sub, ext)
    assert emb.root == oracle_root(sub, ext)
    up = oracle_up(sub, ext, emb.root)
    assert emb.image.tolist() == list(up.values())
    down = {x: a for a, x in up.items()}
    for x in range(ext.order):
        if x in down:
            assert emb.down(x) == down[x]
        else:
            with pytest.raises(FieldError, match=f"element {x} of"):
                emb.down(x)
    tr = [oracle_trace(x, sub, ext, down) for x in range(ext.order)]
    assert emb.traces.tolist() == tr
    basis = standard_basis(emb)
    dual = find_dual_basis(basis)
    assert dual.elements == oracle_dual(basis.elements, sub, ext, up, tr)
    # a seeded random basis too, redrawn until its Gram matrix is invertible
    rng = np.random.default_rng(p ** e + s)
    while True:
        drawn = tuple(rng.integers(1, ext.order, emb.m).tolist())
        if gflinalg.rank(oracle_gram(drawn, ext, tr), sub) == emb.m:
            break
    for b in (basis, dual, ExtensionBasis(emb, drawn)):
        assert np.array_equal(b.gram(), oracle_gram(b.elements, ext, tr))
        assert np.array_equal(lincode._coordinates(b),
                              oracle_table(b.elements, sub, ext, up))


@pytest.mark.parametrize("p,s,e", PROPER, ids=pair_ids(PROPER))
def test_expansions_match_the_table_oracle(p, s, e):
    """expand_basis on random codes with the standard and the dual basis;
    expand_with_parity on RS codes while GF(p^e) is small enough."""
    sub, ext = build_field(p, s), build_field(p, e)
    emb = get_embedding(sub, ext)
    up = dict(enumerate(emb.image.tolist()))
    rng = np.random.default_rng(p ** e + s)
    basis = standard_basis(emb)
    for b in (basis, find_dual_basis(basis)):
        table = oracle_table(b.elements, sub, ext, up)
        for _ in range(2):
            k = int(rng.integers(1, 4))
            code = LinearCode(ext, rng.integers(0, ext.order, (k, k + 2)))
            got = expand_basis(code, b)
            assert got == oracle_expand(code, b.elements, sub, table, False)
            assert got.provenance == f"expand({code.provenance})"
        if ext.order <= 64:
            rs = rs_code(ext.order, max(1, ext.order // 3))
            got = expand_with_parity(rs, b)
            assert got == oracle_expand(rs, b.elements, sub, table, True)
            assert got.declared_distance == 2 * (rs.n - rs.k + 1)


def test_subfield_errors_are_unchanged():
    f2, f4, f8 = build_field(2, 1), build_field(2, 2), build_field(2, 3)
    with pytest.raises(FieldError, match="is not a subfield of"):
        get_embedding(f4, f8)
    with pytest.raises(FieldError, match="is not a subfield of"):
        get_embedding(build_field(3, 1), f8)
    emb = get_embedding(f2, f8)
    with pytest.raises(FieldError, match=r"element 2 of GF\(8\) is not in"):
        emb.down(2)
    with pytest.raises(FieldError, match="element 6 of"):
        emb.down(np.array([1, 0, 6, 3]))
    singular = ExtensionBasis(emb, (1, 2, 3))   # 3 = 1 + 2
    with pytest.raises(CodeError, match="singular"):
        lincode._coordinates(singular)
    code = LinearCode(f8, [[1, 2, 3]])
    with pytest.raises(CodeError, match="singular"):
        expand_basis(code, singular)
    with pytest.raises(CodeError, match="does not match extension degree"):
        expand_basis(code, ExtensionBasis(emb, (1, 2)))
    with pytest.raises(CodeError, match="does not match the code's field"):
        expand_basis(LinearCode(f4, [[1, 2]]), standard_basis(emb))
    zero = LinearCode(f8, [[0, 0, 0]])   # k = 0: nothing to expand
    for expand in (expand_basis, expand_with_parity):
        with pytest.raises(CodeError, match="non-empty 2-d array"):
            expand(zero, standard_basis(emb))
