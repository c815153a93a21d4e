"""Exact honest-tensor oracle for the Kodaira-Thurston family.

Works entirely in the ORIGINAL (non-orthonormal) frame with Fraction
arithmetic, sharing nothing with the engine's unitary-frame pipeline:

  * Levi-Civita from the Koszul formula with the metric G,
  * the true Nijenhuis tensor, omega_{ab} = G(J e_a, e_b), the honest
    invariant-form differential and d^c = J^{-1} d J with its +/- split,
  * the Hermitian connection family from the defining formula (metric duals
    taken with G^{-1}), whose J- and g-parallelism is asserted,
  * curvature Om_t(X,Y) = nabla_{[X,Y]} - [nabla_X, nabla_Y],
  * scal = tr(J o W) with W = 1/2 sum_{ab} B^{ab} Om(e_a, e_b), where the
    fundamental bivector is B = -(omega-matrix)^{-1}; both traces are
    frame-independent, so no orthonormal frame is ever constructed.

The oracle shows the engine's numeric Kodaira-Thurston values are the true
t-Gauduchon scalar curvatures (0 on the x = 0 slice, t-dependent off it),
independently confirming why the published closed form cannot be matched.
Run symbolically, it gives the closed form kt_scal_closed_form, which the
acceptance suite asserts in place of the printed one.
"""

import itertools
from fractions import Fraction

import pytest

from ghl import geometry as geo
from ghl.fileio import bundled_path, load_ghl

N = 4


def kt_data(rv, sv, xv, yv):
    r, s, x, y = (Fraction(v) for v in (rv, sv, xv, yv))
    G = [[r * r, -y, 0, -x],
         [-y, s * s, x, 0],
         [0, x, r * r, -y],
         [-x, 0, -y, s * s]]
    G = [[Fraction(c) for c in row] for row in G]
    J = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    J = [[Fraction(c) for c in row] for row in J]

    def lie(u, v):
        out = [Fraction(0)] * N
        out[3] = -(u[0] * v[1] - u[1] * v[0])
        return out
    return G, J, lie


def mat_inv(M):
    n = len(M)
    aug = [list(map(Fraction, M[i])) + [Fraction(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def mv(M, v):
    return [sum(M[i][k] * v[k] for k in range(N)) for i in range(N)]


def honest_scal(sample, tval: Fraction) -> Fraction:
    G, J, lie = kt_data(*sample)
    Ginv = mat_inv(G)
    e = [[Fraction(1 if i == k else 0) for i in range(N)] for k in range(N)]

    def ip(u, v):
        return sum(u[i] * G[i][j] * v[j] for i in range(N) for j in range(N))

    D = []
    for a in range(N):
        M = [[Fraction(0)] * N for _ in range(N)]
        for b in range(N):
            rhs = [Fraction(1, 2) * (ip(lie(e[a], e[b]), e[c])
                                     - ip(lie(e[b], e[c]), e[a])
                                     + ip(lie(e[c], e[a]), e[b]))
                   for c in range(N)]
            col = mv(Ginv, rhs)
            for r in range(N):
                M[r][b] = col[r]
        D.append(M)

    def Nij(X, Y):
        JX, JY = mv(J, X), mv(J, Y)
        v1, v2 = lie(JX, JY), lie(X, Y)
        v3 = mv(J, [p + q for p, q in zip(lie(JX, Y), lie(X, JY))])
        return [a - b - c for a, b, c in zip(v1, v2, v3)]

    def omega(X, Y):
        return ip(mv(J, X), Y)

    def domega(X, Y, Z):
        return -omega(lie(X, Y), Z) + omega(lie(X, Z), Y) - omega(lie(Y, Z), X)

    def dc(X, Y, Z):
        return domega(mv(J, X), mv(J, Y), mv(J, Z))

    def dc_minus(X, Y, Z):
        JX, JY, JZ = mv(J, X), mv(J, Y), mv(J, Z)
        return Fraction(1, 4) * (dc(X, Y, Z) - dc(JX, JY, Z)
                                 - dc(JX, Y, JZ) - dc(X, JY, JZ))

    def dc_plus(X, Y, Z):
        return dc(X, Y, Z) - dc_minus(X, Y, Z)

    NB = []
    for a in range(N):
        M = [[Fraction(0)] * N for _ in range(N)]
        for b in range(N):
            Jb = mv(J, e[b])
            rhs = []
            for c in range(N):
                Jc = mv(J, e[c])
                rhs.append(-(tval + 1) / 4 * dc_plus(e[a], Jb, Jc)
                           - (tval - 1) / 4 * dc_plus(e[a], e[b], e[c])
                           - Fraction(1, 4) * ip(e[a], Nij(e[b], e[c]))
                           - Fraction(1, 2) * dc_minus(e[a], e[b], e[c]))
            col = mv(Ginv, rhs)
            for r in range(N):
                M[r][b] = D[a][r][b] + col[r]
        NB.append(M)

    # self-checks: nabla J = 0 and nabla g = 0
    for a in range(N):
        for i in range(N):
            for j in range(N):
                commutator = sum(NB[a][i][k] * J[k][j] - J[i][k] * NB[a][k][j]
                                 for k in range(N))
                assert commutator == 0, "oracle connection is not complex-linear"
        for b in range(N):
            for c in range(N):
                val = (sum(G[k][c] * NB[a][k][b] for k in range(N))
                       + sum(G[b][k] * NB[a][k][c] for k in range(N)))
                assert val == 0, "oracle connection is not metric"

    def nb_of(v):
        M = [[Fraction(0)] * N for _ in range(N)]
        for a in range(N):
            if v[a]:
                for i in range(N):
                    for j in range(N):
                        M[i][j] += v[a] * NB[a][i][j]
        return M

    def Om(a, b):
        bracket = lie(e[a], e[b])
        first = nb_of(bracket)
        AB = [[sum(NB[a][i][k] * NB[b][k][j] for k in range(N)) for j in range(N)]
              for i in range(N)]
        BA = [[sum(NB[b][i][k] * NB[a][k][j] for k in range(N)) for j in range(N)]
              for i in range(N)]
        return [[first[i][j] - (AB[i][j] - BA[i][j]) for j in range(N)]
                for i in range(N)]

    omega_mat = [[omega(e[a], e[b]) for b in range(N)] for a in range(N)]
    B = mat_inv(omega_mat)
    B = [[-x for x in row] for row in B]          # fundamental bivector
    W = [[Fraction(0)] * N for _ in range(N)]
    for a, b in itertools.combinations(range(N), 2):
        O = Om(a, b)
        for i in range(N):
            for j in range(N):
                W[i][j] += B[a][b] * O[i][j]
    # scal = 2 tr^C(J o W) = tr(J W), frame-independent
    return sum(J[i][k] * W[k][i] for i in range(N) for k in range(N))


def kt_scal_closed_form(sample, tval) -> Fraction:
    """True t-Gauduchon scalar curvature of the Kodaira-Thurston family:

        scal_t = -(t - 1) sigma^2 x^2 / (r^2 sigma^2 - x^2 - y^2)^2

    Derived by running honest_scal with SymPy symbols for r, sigma, x, y, t
    in place of Fractions; test_engine_matches_honest_oracle pins it to the
    Fraction oracle exactly.  Unlike the printed form it is unchanged by the
    J-commuting automorphism phi_c: e1 -> e1/c, e3 -> e3/c, which pulls
    G(r, sigma, x, y) back to G(r, sigma/c, x/c, y/c)."""
    r, s, x, y = (Fraction(v) for v in sample)
    t = Fraction(tval)
    return -(t - 1) * s * s * x * x / (r * r * s * s - x * x - y * y) ** 2


SAMPLES = [
    ((1, 2, 0, 0), True),
    ((1, 1, 0, Fraction(1, 2)), True),
    ((2, 1, 0, Fraction(-1, 3)), True),
    ((2, 3, 1, 1), False),                       # x != 0: not almost-Kaehler
    ((1, 2, Fraction(1, 2), Fraction(1, 3)), False),
]


@pytest.mark.parametrize("sample,almost_kahler", SAMPLES)
def test_engine_matches_honest_oracle(sample, almost_kahler):
    for tval in (Fraction(0), Fraction(2)):
        want = honest_scal(sample, tval)
        assert want == kt_scal_closed_form(sample, tval)
        loaded = load_ghl(
            bundled_path("kodaira-thurston"),
            sample=dict(zip(("r", "sigma", "x", "y"), map(Fraction, sample))))
        spec = loaded.spec
        t = spec.domain.from_fraction(tval)
        Om, _ = geo.gauduchon_curvature_torsion(spec, t)
        _, _, scal = geo.ricci_and_scalar(spec, Om)
        assert abs(scal - float(want)) <= 1e-9 * max(1.0, abs(float(want)))
        flags = geo.metric_flags(spec)
        assert flags["almost_kahler"] == almost_kahler
        if almost_kahler:
            assert want == 0            # true scal vanishes on the x = 0 slice


def test_honest_oracle_contradicts_printed_closed_form():
    """The same oracle shows the published closed form cannot be the scalar
    curvature: at (1,2,0,0) it claims -1/16 while the honest value is 0."""
    want = honest_scal((1, 2, 0, 0), Fraction(1))
    assert want == 0
    closed = -Fraction(1) / (Fraction(1) * 4 - 0 - 0) ** 2
    assert closed == Fraction(-1, 16)
    assert want != closed
