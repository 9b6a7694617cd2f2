"""The two integrators oulab runs: DOP853 for ODEs and adaptive
Gauss-Kronrod quadrature.

``dop853`` is the explicit Runge-Kutta pair of order 8(5,3) of Dormand and
Prince with its order-7 dense output (Hairer, Norsett and Wanner, *Solving
ODEs I*, II.5-II.6), under the step control of SciPy's ``solve_ivp`` DOP853:
the same tableau, initial-step heuristic, error norm and step factors,
written with the same NumPy operations, so states and interpolant
coefficients equal that solver's bit for bit.

``quad`` bisects the part with the largest error estimate under the
21-point Gauss-Kronrod rule of QUADPACK (Piessens et al., 1983), keeping the
parts and the running sums in the order of ``dqagse``.  It has no epsilon
extrapolation, which only singular integrands need, and oulab integrates
none: on oulab's integrands it takes the same evaluations as
``scipy.integrate.quad`` and returns its value, to the last bit or within
an ulp where QAGS bisects in its extrapolation order.

Both live here so that importing oulab does not import ``scipy.integrate``,
which loads ``scipy.optimize``, ``scipy.special`` and ``scipy.sparse``:
about 0.6 s on import and 0.1 s at exit of every process (one CPU of a
2-vCPU KVM guest), against about 0.15 s for NumPy.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

EPMACH = sys.float_info.epsilon
UFLOW = sys.float_info.min


class IntegratorDivergedError(RuntimeError):
    """The ODE solver's step fell below ten float spacings of t."""


# -- DOP853 ------------------------------------------------------------------

N_STAGES = 12
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 8  # error estimator of order 7

C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
              0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
              0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
              0.7777777777777778])
# A[i, j]: weight of stage j in stage i, as {i: {j: value}}; row 12 holds
# the step weights B, rows 13-15 the three extra stages of the dense output
A = np.zeros((16, 16))
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
    13: {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
         8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
         11: 0.007567897660545699, 12: -0.008298},
    14: {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
         7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
         12: -0.00034046500868740456, 13: 0.1413124436746325},
    15: {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
         7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
         13: 2.9475147891527724, 14: -9.15095847217987},
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
# the last four interpolant coefficients from the 16 stages (columns 1-4 are 0)
D = np.zeros((4, 16))
D[:, [0, *range(5, 16)]] = [
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
]


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol) -> float:
    """Hairer-Norsett-Wanner's starting step, with no step cap."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def dop853(fun, t0: float, t_bound: float, y0, rtol: float, atol: float,
           first_step: float | None = None, dense: bool = False):
    """Integrate y' = fun(t, y) from t0 to t_bound != t0, in either direction.

    Returns the state at t_bound and, when ``dense``, the accepted steps as
    (t_old, t, y_old, F): F holds the seven coefficient rows of the step's
    interpolant.  Without ``first_step`` the first step comes from the
    starting-step heuristic.  Raises IntegratorDivergedError when a step
    would fall below ten float spacings of t, as it does on a non-finite
    right-hand side.
    """
    t, t_bound = float(t0), float(t_bound)
    y = np.asarray(y0).astype(float, copy=False)
    rhs = lambda u, v: np.asarray(fun(u, v), dtype=float)
    direction = np.sign(t_bound - t)
    f = rhs(t, y)
    h_abs = first_step
    if h_abs is None:
        h_abs = _initial_step(rhs, t, y, t_bound, f, direction, rtol, atol)
    stages = np.empty((16, y.size))
    k = stages[:N_STAGES + 1]
    steps = []
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
        if dense:
            for s in range(N_STAGES + 1, 16):
                stages[s] = rhs(t + C[s] * h, y + np.dot(stages[:s].T, A[s, :s]) * h)
            F = np.empty((7, y.size))
            delta_y = y_new - y
            F[0] = delta_y
            F[1] = h * f - delta_y
            F[2] = 2 * delta_y - h * (f_new + f)
            F[3:] = h * np.dot(D, stages)
            steps.append((t, t_new, y, F))
        t, y, f = t_new, y_new, f_new
    return y, steps


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
# (index, abscissa, Kronrod weight, Gauss weight or 0): Gauss points first
_NODES = tuple((j, XGK[j], WGK[j], WG[j // 2] if j % 2 else 0.0)
               for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8))


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int = 50):
    """(integral of f over [a, b], error estimate); b < a negates.

    Globally adaptive bisection with the 21-point Gauss-Kronrod rule: the
    part with the largest error estimate is halved until the summed
    estimate is within max(epsabs, epsrel |integral|).  Reaching ``limit``
    parts first gives a RuntimeWarning.
    """
    if a == b:
        return 0.0, 0.0
    lo, hi = min(a, b), max(a, b)
    area, errsum, _, _ = _qk21(f, lo, hi)
    parts = [(lo, hi, area, errsum)]
    while errsum > max(epsabs, epsrel * abs(area)):
        if len(parts) == limit:
            warnings.warn(f"quad on [{a}, {b}]: {limit} subintervals leave an error "
                          f"estimate of {errsum:.3g}", RuntimeWarning, stacklevel=2)
            break
        k = max(range(len(parts)), key=lambda i: parts[i][3])
        left, right, r, e = parts[k]
        mid = 0.5 * (left + right)
        r1, e1, _, _ = _qk21(f, left, mid)
        r2, e2, _, _ = _qk21(f, mid, right)
        errsum = errsum + (e1 + e2) - e
        area = area + (r1 + r2) - r
        lower, upper = (left, mid, r1, e1), (mid, right, r2, e2)
        # the half with the larger error takes slot k, the other goes last
        parts[k], spare = (upper, lower) if e2 > e1 else (lower, upper)
        parts.append(spare)
    total = 0.0  # left to right, as dqagse sums; sum() compensates from Python 3.12
    for part in parts:
        total = total + part[2]
    return (-total if b < a else total), errsum


def _qk21(f, a: float, b: float):
    """21-point Gauss-Kronrod rule: (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    resg = 0.0
    fc = f(centr)
    resk = WGK[10] * fc
    resabs = abs(resk)
    fv = [None] * 10
    for j, x, wk, wg in _NODES:
        absc = hlgth * x
        fval1, fval2 = f(centr - absc), f(centr + absc)
        fv[j] = (wk, fval1, fval2)
        fsum = fval1 + fval2
        if wg:
            resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = WGK[10] * abs(fc - reskh)
    for wk, fval1, fval2 in fv:
        resasc = resasc + wk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc
