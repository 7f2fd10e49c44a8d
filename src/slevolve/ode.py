"""One Dormand-Prince 8(5,3) driver for every ODE in slevolve.

The w system (``centred.integrate_w``, ``centred.betas_ode``,
``centred.verify_periodic``), the translated system
(``affine.integrate_affine``) and the general evolution equation
(``evolver.integrate``) all run through ``solve``, the w system and its
translation at ``centred``'s one tolerance pair.  It takes a complex
start, calls the right-hand side on the packed real vector (Re z, Im z),
and hands back complex values, so no caller packs or unpacks.
A run carries at most one ``Event``: an upward crossing with a stop count,
on dense runs only.  Every integration that can escape in finite time
(``integrate_w``, ``integrate_affine``, ``evolver.integrate``) stops at the
first crossing of ``blow_up``; ``betas_ode`` stops at its third upward du
crossing.

The method is DOP853 with its 7th-order dense output (Hairer, Norsett &
Wanner, *Solving Ordinary Differential Equations I*, Sec. II.5 and II.6),
ported from scipy's ``solve_ivp(method="DOP853")`` with the same floating
point operations in the same order: step times, right-hand-side counts,
dense values and event times equal scipy's bit for bit
(``tests/test_ode.py`` holds scipy as the oracle).  What differs is the
bookkeeping: the dense output is one set of arrays evaluated for all query
times at once, and with ``t_eval`` (forward runs: ``verify_periodic``'s
windows) the interpolant is built only on steps that contain a requested
time.  Event times come from ``roots.brent``, which equals scipy's
``brentq`` bit for bit, so the driver imports no scipy module.

Bitwise equality fixes which operations stay in numpy.  Every product whose
rounding belongs to BLAS is the numpy call scipy makes: the gemv of each
stage combination g and of the solution update (each written into one
preallocated buffer), the gemv of both error estimates, the ``ddot`` of
each error norm, and the dense output's ``np.dot(D, K)``.  A hand-written
sum would round differently, and so may another BLAS build.

Everything else in a stage is the right-hand side's, through one call of
the stage protocol of ``System``: it forms the stage state y + g*h,
evaluates the right-hand side there and writes its row of the stage matrix
(the last stage of a step also writes the new state).  A plain numpy
``rhs(t, y)`` is wrapped by an adapter whose stage is scipy's ``g *= h;
K[s] = rhs(t, y + g)``.  ``generated_system`` builds the straight-line
kernels of the w system (``centred._w_kernel``) and of the general engine
(``evolver._stage_kernel``), whose fused stage is the numpy stage bit for
bit without the numpy calls around it.

The scalar step control runs on Python floats: the direction, h and |h|,
the stage times t + c*h, the minimum step (``math.nextafter``), the square
roots of the error norm and the step factor.  Each of these is one
IEEE-754 double operation (+, -, *, /, sqrt, or ``pow`` from the same C
library), which rounds the same on a Python float as on a numpy float64
scalar, at a fraction of the numpy scalar's cost.  The ``t_eval`` window of
each step comes from ``bisect_right`` on a list, which returns
``np.searchsorted``'s side="right" index on a sorted array, ties included.

The tableau and the ported algorithm come from SciPy, under this notice:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import math
import struct
from bisect import bisect_right

import numpy as np

from .errors import NumericalError, ValidationError
from .roots import EPS, brent

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

SAFETY = 0.9        # multiplies steps predicted from the error estimate
MIN_FACTOR = 0.2    # largest decrease of a step size
MAX_FACTOR = 10     # largest increase of a step size
ERROR_EXPONENT = -1 / 8     # -1 / (error estimator order + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# the stage rows A[s, :s], as the contiguous slices scipy's loop takes,
# with the nodes C[s] as Python floats
_STAGES = [(A[s, :s], float(C[s])) for s in range(1, N_STAGES)]
_EXTRA_STAGES = [(A[s, :s], float(C[s]))
                 for s in range(N_STAGES + 1, N_STAGES_EXTENDED)]


class System:
    """A right-hand side as the driver steps it (the stage protocol).

    ``rhs(t, y)`` returns the derivative at the packed real vector y as a
    float array; it serves the first evaluation, the initial step size,
    events, and calls on the system itself.  ``start(y)`` gives, once per
    step, the form of the step's start state y that ``stage`` takes.
    ``stage(t, ys, g, h, K, s, y_new=None)`` is one Runge-Kutta stage at
    time t: with the stage combination g (the driver's buffer, which it may
    overwrite) it forms x = y + g*h, writes rhs(t, x) into row s of K and,
    when ``y_new`` is given, x into ``y_new``, with the same rounding as
    ``g *= h; y + g`` in numpy.
    """

    __slots__ = ("rhs", "start", "stage")

    def __init__(self, rhs, start, stage):
        self.rhs = rhs
        self.start = start
        self.stage = stage

    def __call__(self, t, y):
        return self.rhs(t, y)


def _as_is(y):
    return y


def _numpy_system(fun) -> System:
    """The adapter for a plain numpy ``fun(t, y)``: each stage is scipy's."""
    def stage(t, y, g, h, K, s, y_new=None):
        np.multiply(g, h, out=g)
        K[s] = fun(t, np.add(y, g, out=y_new))     # y + g without y_new
    return System(fun, _as_is, stage)


def generated_system(name: str, body: list, outputs: list,
                     constants: dict = None) -> System:
    """A ``System`` of straight-line code on the n = len(outputs) packed
    reals x0, ..., x{n-1}, compiled once: ``body`` holds its arithmetic,
    lines that read the state and ``constants`` by name, and ``outputs``
    the n expressions of the derivative.  The names y*, g*, t, h, K, row,
    y_new, array and pack are the scaffold's; ``name`` labels the code.

    ``rhs(t, y)`` reads the state from ``y.tolist()``.  ``stage`` reads the
    step's start as a list (``start`` is ``ndarray.tolist``) and forms
    x_i = y_i + g_i*h on Python floats: scaling by h and adding are one
    IEEE-754 double operation per element each, so x rounds as numpy's
    ``g *= h; y + g``, except that a sum of two NaNs may carry either one's
    sign and payload (numpy's own loop differs by lane there).  It packs
    the outputs into row ``row`` of K, and x into ``y_new`` when given,
    with ``struct.pack_into`` in native ``d`` format, a plain copy of each
    double, so signed zeros and NaN payloads survive as in ``K[s] =
    array(...)``.  The numpy calls this saves cost more than a short
    system's arithmetic.  The body keeps one rule: past x, every operation
    on two values that may both be NaN is complex arithmetic, which runs in
    C whether or not the interpreter has specialized the code, so the NaN a
    stage returns does not depend on how often the kernel ran before.
    """
    n = len(outputs)
    layout = struct.Struct(f"{n}d")     # one row of K, native doubles
    xs, gs, ys = (", ".join(f"{v}{i}" for i in range(n)) for v in "xgy")
    out = ", ".join(outputs)
    code = "".join(f"    {line}\n" for line in body)
    src = (f"def rhs(t, y):\n    {xs}, = y.tolist()\n{code}"
           f"    return array(({out},), dtype=float)\n"
           f"def stage(t, y, g, h, K, row, y_new=None):\n"
           f"    {gs}, = g.tolist()\n    {ys}, = y\n"
           + "".join(f"    x{i} = y{i} + g{i} * h\n" for i in range(n))
           + f"{code}    pack(K, row * {layout.size}, {out})\n"
           f"    if y_new is not None:\n        pack(y_new, 0, {xs})\n")
    namespace = dict(constants or {}, array=np.array, pack=layout.pack_into)
    exec(compile(src, f"<{name}>", "exec"), namespace)
    return System(namespace["rhs"], np.ndarray.tolist, namespace["stage"])


class Event:
    """A scalar event g(t, y) on the packed state.  It fires on a step over
    which g goes from <= 0 to >= 0 in the direction of integration (scipy's
    ``direction`` = 1, backward runs included), and its crossing is located
    on the step's interpolant.  ``terminal`` = n > 0 stops the integration
    at the n-th crossing (scipy's integer ``terminal``; 0 never stops)."""

    def __init__(self, fun, terminal: int = 0):
        if not (0 <= terminal < math.inf and terminal == int(terminal)):
            raise ValidationError(f"an event's terminal count must be a "
                                  f"non-negative integer, got {terminal!r}")
        self.fun = fun
        self.terminal = int(terminal)


BLOWUP_GUARD = 1e8


def blow_up(linear: int, size: int, m: int) -> Event:
    """The event of an escape in C^m, stopping the run at its first
    crossing: |L|^max(m-2, 1) reaches ``BLOWUP_GUARD``, L the first
    ``linear`` of the ``size`` complex state components (w or A; a
    translation after L stays finite while L does).
    The right-hand side has degree m-1 in L, so that power, its inverse
    time scale, crosses the guard about 1/BLOWUP_GUARD before the blow-up
    for every m (|L| reaches 1e8 within double spacing of it at m >= 4)."""
    idx = np.r_[0:linear, size:size + linear]
    power, guard = max(m - 2, 1), BLOWUP_GUARD
    return Event(lambda t, y: np.linalg.norm(y[idx]) ** power - guard,
                 terminal=1)


class Solution:
    """What one ``solve`` run produced.

    ``t`` holds the step times (ending at the stopping crossing, if the
    event stopped the run), ``nfev`` the right-hand-side evaluations,
    ``status`` 0 (reached t_end), 1 (stopped by the event) or -1 (failed;
    only seen on the ``IntegrationError``), ``t_event`` the array of the
    event's crossing times (empty without an event) and ``h_abs`` the last
    step size the controller tried.  With dense output, calling the
    solution gives complex values of shape ``t.shape + (n,)``; with
    ``t_eval`` the values at those times are in ``z_eval``.  Each stored step keeps its own start time and length, so
    the interpolant of a step cut short by the event is still the full
    step's.
    """

    def __init__(self, t, nfev, status, message, t_event, h_abs, steps,
                 z_eval=None):
        self.t = t
        self.nfev = nfev
        self.status = status
        self.message = message
        self.t_event = t_event
        self.h_abs = h_abs
        self.z_eval = z_eval
        self._steps = steps

    def __call__(self, t):
        if self.z_eval is not None:
            raise ValueError("dense output was not requested (t_eval given)")
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        ts = self.t
        n_seg = self._steps[1].size
        # OdeSolution's segment choice: a step end belongs to the step it ends
        if ts[-1] >= ts[0]:
            seg = np.searchsorted(ts, flat, side="left") - 1
            np.clip(seg, 0, n_seg - 1, out=seg)
        else:
            seg = np.searchsorted(ts[::-1], flat, side="right") - 1
            seg = n_seg - 1 - np.clip(seg, 0, n_seg - 1)
        z = _complex(_evaluate(*self._steps, seg, flat))
        return z.reshape(t.shape + z.shape[-1:])


class IntegrationError(NumericalError):
    """A ``solve`` run that could not reach t_end; ``solution`` holds what
    it did reach (status -1)."""

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


def _complex(y):
    """Packed (Re z, Im z) rows as complex z."""
    n = y.shape[-1] // 2
    return y[..., :n] + 1j * y[..., n:]


def _interpolate(F, y_old, x):
    """The DOP853 interpolant at step fractions x (Dop853DenseOutput)."""
    y = np.zeros(y_old.shape)
    for i in range(INTERPOLATOR_POWER):
        y += F[..., INTERPOLATOR_POWER - 1 - i, :]
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


def _evaluate(t_old, h, y_old, F, seg, t):
    """Dense values at times t, the i-th on stored step seg[i]; elementwise
    the same arithmetic as evaluating each step's interpolant alone."""
    x = (t - t_old[seg]) / h[seg]
    return _interpolate(F[seg], y_old[seg], x[:, None])


def _norm(x):
    # np.linalg.norm of a real vector, without its dispatch
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """scipy's ``select_initial_step`` for an order-7 error estimator."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length, np.inf)


def _error_norm(KT, h, scale):
    # the gemv and the ddot stay numpy's; the rest is Python floats
    err5 = KT.dot(E5) / scale
    err3 = KT.dot(E3) / scale
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))


def _crossing(fun, t_old, h, y_old, F, t, where):
    """The event's crossing on one step from t_old to t = t_old + h (scipy's
    ``handle_events``), located by ``brent`` on the step's interpolant;
    ``where`` is (stage, params)."""
    def g(s, rows):
        return np.array([fun(x, _interpolate(F, y_old, (x - t_old) / h))
                         for x in s.tolist()])

    stage, params = where
    return brent(g, [t_old], [t], xtol=4 * EPS, rtol=4 * EPS,
                 stage=f"{stage} event", params=params)[0]


def _dop853(system, t_end, y0, rtol, atol, event, t_eval, where):
    """The scipy DOP853 solver and the ``solve_ivp`` loop around it, on a
    real state, started at t = 0, every stage one ``system.stage`` call;
    ``where`` (stage, params) names the run in root-finding errors."""
    fun, start, stage = system.rhs, system.start, system.stage
    t0, tf = 0.0, float(t_end)
    rtol = max(rtol, 100 * EPS)
    atol = np.asarray(atol)
    n = y0.size
    direction = -1.0 if tf < t0 else 1.0
    dense = t_eval is None

    t, y = t0, y0
    f = fun(t, y)
    h_abs = float(_initial_step(fun, t0, y0, tf, f, direction, rtol, atol))
    nfev = 1 if t == tf else 2
    K_extended = np.empty((N_STAGES_EXTENDED, n))
    K = K_extended[:N_STAGES + 1]
    dy = np.empty(n)
    # each stage's row and the transposed view scipy takes afresh at it
    stages = [(s, K[:s].T, a, c) for s, (a, c) in enumerate(_STAGES, start=1)]
    extra_stages = [(s, K_extended[:s].T, a, c) for s, (a, c)
                    in enumerate(_EXTRA_STAGES, start=N_STAGES + 1)]
    KT, KT_main = K.T, K[:-1].T

    ts = [t0]
    seg_t_old, seg_h, seg_y_old, seg_F = [], [], [], []
    if not dense:
        # ascending (forward runs); bisect on the list is searchsorted's answer
        t_eval_list = t_eval.tolist()
        t_eval_i = 0
        eval_segs = np.empty(t_eval.size, dtype=int)
    t_event = []
    if event is not None:
        g = event.fun(t0, y0)

    def dense_output(t_old, t, y_old, ys_old, y, f, h):
        """Store the step's interpolant (three extra stages); return its
        index."""
        for s, Ks, a, c in extra_stages:
            Ks.dot(a, out=dy)
            stage(t_old + c * h, ys_old, dy, h, K_extended, s)
        F = np.empty((INTERPOLATOR_POWER, n))
        f_old = K_extended[0]
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f + f_old)
        F[3:] = h * np.dot(D, K_extended)
        seg_t_old.append(t_old)
        seg_h.append(t - t_old)
        seg_y_old.append(y_old)
        seg_F.append(F)
        return len(seg_h) - 1

    status = None
    message = None
    if t == tf:         # an empty interval: one constant "step"
        seg_t_old.append(t0)
        seg_h.append(1.0)
        seg_y_old.append(y0)
        seg_F.append(np.zeros((INTERPOLATOR_POWER, n)))
        ts.append(tf)
        status = 0
        if not dense:
            eval_segs[:] = 0
            t_eval_i = t_eval.size
    while status is None:
        # one accepted step (RungeKutta._step_impl)
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        K[0] = f
        ys = start(y)
        while True:
            if h_abs < min_step:
                status, message = -1, TOO_SMALL_STEP
                break
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = abs(h)

            for s, Ks, a, c in stages:
                Ks.dot(a, out=dy)
                stage(t + c * h, ys, dy, h, K_extended, s)
            KT_main.dot(B, out=dy)
            y_new = np.empty(n)
            stage(t + h, ys, dy, h, K_extended, N_STAGES, y_new)
            nfev += N_STAGES

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(KT, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
        if status == -1:
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[N_STAGES].copy()
        if direction * (t - tf) >= 0:
            status = 0

        # dense output and the event, or t_eval (the solve_ivp loop)
        if dense:
            seg = dense_output(t_old, t, y_old, ys, y, f, h)
            nfev += 3
            if event is not None:
                g_new = event.fun(t, y)
                if g <= 0 <= g_new:
                    t_event.append(_crossing(event.fun, t_old, seg_h[seg],
                                             seg_y_old[seg], seg_F[seg], t,
                                             where))
                    if len(t_event) == event.terminal:
                        status = 1
                        t = t_event[-1]
                g = g_new
            if len(ts) > 1 and ts[-1] == t:
                seg_t_old.pop()
                seg_h.pop()
                seg_y_old.pop()
                seg_F.pop()
            else:
                ts.append(t)
        else:
            ts.append(t)
            t_eval_i_new = bisect_right(t_eval_list, t)
            if t_eval_i_new > t_eval_i:
                eval_segs[t_eval_i:t_eval_i_new] = dense_output(
                    t_old, t, y_old, ys, y, f, h)
                nfev += 3
                t_eval_i = t_eval_i_new

    steps = (np.array(seg_t_old, dtype=float), np.array(seg_h, dtype=float),
             np.array(seg_y_old).reshape(-1, n),
             np.array(seg_F).reshape(-1, INTERPOLATOR_POWER, n))
    z_eval = None
    if not dense:
        # points past the last step (a failed run) stay unevaluated
        z_eval = _complex(_evaluate(*steps, eval_segs[:t_eval_i],
                                    t_eval[:t_eval_i]))
    return Solution(np.array(ts, dtype=float), nfev, status, message,
                    np.array(t_event, dtype=float), h_abs, steps, z_eval)


def solve(rhs, z0, t_end: float, rtol: float, atol: float, *, stage: str,
          params: dict, event: Event = None, t_eval=None) -> Solution:
    """Integrate dz/dt from z(0) = z0 to t = t_end (either sign) by DOP853.

    ``rhs(t, y)`` and the ``event``'s ``fun(t, y)`` act on the packed real
    vector y = (Re z, Im z) and ``rhs`` returns a float array of that
    shape; a ``System`` brings its own stage call, any other callable is
    stepped through the numpy adapter.  Without ``t_eval`` the solution
    carries its dense output, and the one upward ``Event``, if given, is
    located on it; with ``t_eval`` (non-decreasing times in [0, t_end] of
    a forward run) only the values there are kept, and only steps
    containing one of those times pay for an interpolant.  An event given
    with ``t_eval``, ``t_eval`` with t_end < 0, and a ``t_eval`` that is
    not 1-D, finite, non-decreasing and inside [0, t_end] (it would be read
    off the wrong step or beyond the run) raise ``ValidationError``, and so
    do a NaN or infinite t_end, which no step can reach, a NaN or infinite
    tolerance, on which no step size is ever too small, and a negative
    atol, which scipy refuses too (an rtol below 100 eps is raised to it,
    as scipy does).  A run that cannot reach t_end
    raises ``IntegrationError``, naming ``stage``, ``params``, the time
    reached, the last step size tried and the tolerances.
    """
    where = ", ".join(f"{k}={v}" for k, v in params.items())
    if not math.isfinite(t_end):
        raise ValidationError(f"{stage} needs a finite t_end ({where}): "
                              f"got t_end = {float(t_end)!r}")
    if not (math.isfinite(rtol) and 0.0 <= atol < math.inf):
        raise ValidationError(f"{stage} needs a finite rtol and a finite, "
                              f"non-negative atol ({where}): got rtol = "
                              f"{float(rtol)!r}, atol = {float(atol)!r}")
    if event is not None and t_eval is not None:
        raise ValidationError(f"{stage} takes an event or t_eval, not both "
                              f"({where})")
    if t_eval is not None:
        if t_end < 0:
            raise ValidationError(f"{stage} takes t_eval on forward runs "
                                  f"only ({where}): got t_end = "
                                  f"{float(t_end)!r}")
        t_eval = np.asarray(t_eval, dtype=float)
        # a NaN or infinite time fails the bounds
        if not (t_eval.ndim == 1 and np.all(np.diff(t_eval) >= 0)
                and np.all((0.0 <= t_eval) & (t_eval <= t_end))):
            raise ValidationError(
                f"{stage} needs t_eval as finite, non-decreasing times in "
                f"[0, t_end = {float(t_end)!r}] ({where})")
    if not isinstance(rhs, System):
        rhs = _numpy_system(rhs)
    z0 = np.asarray(z0, dtype=complex)
    sol = _dop853(rhs, t_end, np.concatenate([z0.real, z0.imag]), rtol, atol,
                  event, t_eval, (stage, params))
    if sol.status < 0:
        raise IntegrationError(
            f"{stage} failed ({where}): reached t = {float(sol.t[-1])!r} of "
            f"t_end = {float(t_end)!r}, last step size {sol.h_abs:.3e}, "
            f"rtol = {rtol:g}, atol = {atol:g}: {sol.message}", sol)
    return sol
