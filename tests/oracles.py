"""Reference computations the tests compare the package against.

Each oracle here takes a route independent of the code it checks: a
quadrature level that visits its nodes one at a time, or an mpmath
computation at the working precision (callers pass the `mpmath` module
from `pytest.importorskip` and set the digits with `mpmath.workdps`).
"""


def per_node(f):
    """A whole-level evaluator that visits the nodes one at a time.

    f maps a scalar t to a scalar or an ndarray; the evaluator returns
    sum_i w_i f(t_i) over one level's (nodes, weights), accumulated node by
    node, for `integrate_adaptive` (or, through `panel_nodes`, `refine`).
    """
    def level(nodes, weights):
        acc = 0.0
        for t, w in zip(nodes, weights):
            acc = acc + w * f(t)
        return acc

    return level


def van_loan_gramian_mp(mpmath, m_mp, b_mp, horizon):
    """int_0^T e^{M s} B B^T e^{M^T s} ds at the working precision: with
    expm([[-M, B B^T], [0, M^T]] T) = [[., F12], [0, F22]], it is F22^T F12."""
    n = m_mp.rows
    bbt = b_mp * b_mp.T                     # not b @ b.T: no double rounding
    block = mpmath.zeros(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            block[i, j] = -m_mp[i, j]
            block[i, n + j] = bbt[i, j]
            block[n + i, n + j] = m_mp[j, i]
    e = mpmath.expm(block * horizon)
    f12 = mpmath.matrix(n, n)
    f22 = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            f12[i, j] = e[i, n + j]
            f22[i, j] = e[n + i, n + j]
    return f22.T * f12


def tikhonov_root_mp(mpmath, gram, z, target):
    """(eta, terminal) of (G + nu I) eta = z with ||z - G eta|| = target,
    nu found by geometric bisection at the working precision."""
    n = gram.rows

    def at(nu):
        eta = mpmath.lu_solve(gram + nu * mpmath.eye(n), z)
        return eta, z - gram * eta

    hi = mpmath.norm(gram, 1)
    while mpmath.norm(at(hi)[1]) < target:
        hi *= 10
    lo = hi
    while mpmath.norm(at(lo)[1]) > target:
        lo /= 10
    for _ in range(200):
        mid = mpmath.sqrt(lo * hi)
        if mpmath.norm(at(mid)[1]) <= target:
            lo = mid
        else:
            hi = mid
    return at(lo)


def hermite_gram_mp(mpmath, n, a, b):
    """int_a^b h_j h_k dx, j, k < n, for the orthonormal Hermite functions
    h_k = (2^k k! sqrt(pi))^(-1/2) H_k e^{-x^2/2}, at the working precision.

    No quadrature: the physicists' H_k have integer coefficients
    (H_{k+1} = 2x H_k - 2k H_{k-1}), and the moments
    I_p = int_a^b x^p e^{-x^2} dx follow from I_0 = sqrt(pi)/2 (erf b -
    erf a) and I_p = ((p-1) I_{p-2} + [x^{p-1} e^{-x^2}]_b^a) / 2.  a and b
    may be -inf and +inf.
    """
    a, b = mpmath.mpf(a), mpmath.mpf(b)

    def edge(x, p):                     # x^p e^{-x^2}, 0 at infinity
        return 0 if mpmath.isinf(x) else x**p * mpmath.exp(-x * x)

    coeffs = [[1], [0, 2]][:n]
    for k in range(1, n - 1):
        nxt = [0] + [2 * c for c in coeffs[k]]
        for p, c in enumerate(coeffs[k - 1]):
            nxt[p] -= 2 * k * c
        coeffs.append(nxt)
    moments = [mpmath.sqrt(mpmath.pi) / 2 * (mpmath.erf(b) - mpmath.erf(a)),
               (edge(a, 0) - edge(b, 0)) / 2]
    for p in range(2, 2 * n - 1):
        moments.append(((p - 1) * moments[p - 2]
                        + edge(a, p - 1) - edge(b, p - 1)) / 2)
    scale = [1 / mpmath.sqrt(2**k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
             for k in range(n)]
    gram = mpmath.matrix(n, n)
    for j in range(n):
        for k in range(n):
            gram[j, k] = scale[j] * scale[k] * mpmath.fsum(
                cj * ck * moments[p + q]
                for p, cj in enumerate(coeffs[j])
                for q, ck in enumerate(coeffs[k]))
    return gram
