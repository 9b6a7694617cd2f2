"""The two integrators oulab runs: DOP853 for ODEs and adaptive
Gauss-Kronrod quadrature.

``dop853`` is the explicit Runge-Kutta pair of order 8(5,3) of Dormand and
Prince (Hairer, Norsett and Wanner, *Solving ODEs I*, II.5), under the step
control of SciPy's ``solve_ivp`` DOP853: the same tableau, error norm and
step factors, written with the same NumPy operations, so from the same
first step its states equal that solver's bit for bit.

``quad`` is globally adaptive bisection under the 21-point Gauss-Kronrod
rule and error estimate of QUADPACK (Piessens et al., 1983), for one
integrand or for several on one shared subdivision.  Each rule takes all 21
values of every integrand from one call and sums them as dot products with
the weight vectors, not in QUADPACK's order, so on oulab's integrands its
values agree with ``scipy.integrate.quad`` to roundoff, not bit for bit.
It has no epsilon extrapolation, which only singular integrands need, and
oulab integrates none.

Both live here so that importing oulab does not import ``scipy.integrate``,
which loads ``scipy.optimize``, ``scipy.special`` and ``scipy.sparse``:
about 0.6 s on import and 0.1 s at exit of every process (one CPU of a
2-vCPU KVM guest), against about 0.15 s for NumPy.
"""

from __future__ import annotations

import sys

import numpy as np

EPMACH = sys.float_info.epsilon


class IntegratorDivergedError(RuntimeError):
    """An integrator stopped short of its tolerance: an ODE step fell below
    ten float spacings of t, or quad hit its subinterval limit above it."""


# -- DOP853 ------------------------------------------------------------------

N_STAGES = 12
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 8  # error estimator of order 7

C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
              0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
              0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
# A[i, j]: weight of stage j in stage i, as {i: {j: value}}; row 12 holds
# the step weights B
A = np.zeros((N_STAGES + 1, N_STAGES))
for _i, _row in {
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
        5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
         5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
         5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
         8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    12: {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
         7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
         10: 0.20136540080403034, 11: 0.04471061572777259},
}.items():
    A[_i, list(_row)] = list(_row.values())
del _i, _row
B = A[N_STAGES, :N_STAGES]
# error weights of the embedded 5th- and 3rd-order estimates
E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
               -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
               0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, -0.4226823213237919,
               -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])


def dop853(fun, t0: float, t_bound: float, y0, rtol: float, atol: float,
           first_step: float) -> np.ndarray:
    """State at t_bound of y' = fun(t, y), y(t0) = y0, integrated from t0 to
    t_bound != t0 in either direction, starting with a step of ``first_step``.

    Raises IntegratorDivergedError when a step would fall below ten float
    spacings of t, as it does on a non-finite right-hand side.
    """
    t, t_bound = float(t0), float(t_bound)
    y = np.asarray(y0).astype(float, copy=False)
    rhs = lambda u, v: np.asarray(fun(u, v), dtype=float)
    direction = np.sign(t_bound - t)
    f = rhs(t, y)
    h_abs = first_step
    k = np.empty((N_STAGES + 1, y.size))
    while direction * (t - t_bound) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegratorDivergedError(
                    f"DOP853 on [{t0}, {t_bound}]: required step size is below the "
                    f"spacing of floats at t = {t}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            k[0] = f
            for s in range(1, N_STAGES):
                k[s] = rhs(t + C[s] * h, y + np.dot(k[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, B)
            f_new = rhs(t + h, y_new)
            k[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(k, h, scale)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y


def _error_norm(k: np.ndarray, h: float, scale: np.ndarray) -> float:
    """Step error of the 5th- and 3rd-order embedded estimates, combined."""
    err5 = np.dot(k.T, E5) / scale
    err3 = np.dot(k.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


# -- adaptive Gauss-Kronrod quadrature -----------------------------------------

# 21-point Kronrod abscissae (descending; odd 1-based entries are the
# Kronrod points, even ones the 10-point Gauss points) and weights
XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077208745116202, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
      0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
      0.295524224714752870173892994651338)
# the rule on [-1, 1], left to right: abscissae, Kronrod weights, and the
# Kronrod and Gauss weights as two rows, the Gauss ones 0 at the Kronrod-only
# abscissae
_J = (*range(11), *range(9, -1, -1))  # index into XGK of each abscissa
XK = np.array([-XGK[j] if i < 11 else XGK[j] for i, j in enumerate(_J)])
WK = np.array([WGK[j] for j in _J])
W_KG = np.array([WK, [WG[j // 2] if j % 2 else 0.0 for j in _J]])


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int = 50):
    """Integral of f over [a, b]; b < a negates.

    f maps a part's 21 Kronrod abscissae, an array, to f's values there: a
    (21,) array for one integrand, (21, m) for m integrands on one shared
    subdivision, whose integrals then have shape (m,).
    Globally adaptive bisection with the 21-point Gauss-Kronrod rule: the
    part whose error estimate is largest relative to the tolerance
    max(epsabs, epsrel |I_j|) of a component j is halved, until every
    component's summed estimate is within its tolerance.  Reaching ``limit``
    parts first raises IntegratorDivergedError.  An empty interval gives 0.0
    without calling f.
    """
    if a == b:
        return 0.0
    lo, hi = min(a, b), max(a, b)
    ends, rules = [(lo, hi)], [_qk21(f, lo, hi)]
    area, errsum = rules[0]
    while np.any(errsum > (tol := np.maximum(epsabs, epsrel * np.abs(area)))):
        if len(rules) == limit:
            raise IntegratorDivergedError(f"quad on [{a}, {b}]: {limit} subintervals leave "
                                          f"an error estimate of {np.max(errsum):.3g}")
        ratios = np.array([e for _, e in rules]) / tol
        k = int(np.argmax(ratios.reshape(len(rules), -1).max(axis=1)))
        left, right = ends[k]
        mid = 0.5 * (left + right)
        ends[k], rules[k] = (left, mid), _qk21(f, left, mid)
        ends.append((mid, right))
        rules.append(_qk21(f, mid, right))
        area, errsum = (np.sum(column, axis=0) for column in zip(*rules))
    return -area if b < a else area


def _qk21(f, a: float, b: float):
    """21-point Gauss-Kronrod rule on [a, b], a <= b: (result, QUADPACK's
    error estimate), per component of f."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fv = np.asarray(f(centr + hlgth * XK), dtype=float) * hlgth
    result, gauss = W_KG @ fv
    resabs = WK @ np.abs(fv)
    resasc = WK @ np.abs(fv - 0.5 * result)  # 0.5 result: the mean of f times hlgth
    with np.errstate(divide="ignore", invalid="ignore"):  # resasc is 0 on a constant f
        abserr = resasc * np.fmin(1.0, (200.0 * np.abs(result - gauss) / resasc) ** 1.5)
    return result, np.maximum(abserr, (50.0 * EPMACH) * resabs)
