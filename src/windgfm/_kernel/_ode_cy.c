/* Compiled kernel: the closed-loop RK4 integrator.  Its derivative mirrors
 * _ode_py in the same operation order, so the two backends agree bit for
 * bit: edit the two together.  Build with -ffp-contract=off where the
 * compiler would otherwise fuse multiply-adds (setup.py does).
 *
 * The derivative sees time only through the load sum load(t), so one RK4
 * step is a pure function of the state and of its three loads, at t0,
 * t0 + h/2 and t0 + h.  A step that returns its state unchanged bit for bit
 * marks the state fixed under those loads; a later step whose three loads
 * have the same bits would return the same state and outputs, so it is
 * skipped.  Before a load event the equilibrium is such a fixed point: a run
 * integrates only from its first event on, and its rows are bit for bit
 * those of the full integration.  A settled tail after a load step can be
 * one too, since the state holds angle differences, not angles.
 *
 * The module also writes the trace CSV's rows (csv_rows): every value as
 * Python's '%.17g' % v, from exact integer arithmetic where it applies and
 * from CPython's own formatter elsewhere.  It formats exactly the rows it is
 * given, with no header; harness.trace_csv cuts a trace into blocks of
 * harness.BLOCK rows and calls it once per block, so no text longer than a
 * block is ever built.
 *
 * It needs Python's headers only: simulate returns its rows as one float64
 * bytearray, and csv_rows reads its columns through the buffer protocol. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define N 11        /* layout.STATES, in its order */
#define N_OUT 3     /* P_wt, P_gsc, w_gsc (keep in sync with layout.py) */
#define BETZ (16.0 / 27.0)

/* parameter indices (keep in sync with layout.py) */
enum {
    P_JG, P_TG, P_KG, P_BG, P_BM, P_JWT, P_CDC, P_TDC, P_KDG, P_KTG,
    P_KDM, P_KTM, P_OMDEL, P_BETADEL, P_KP, P_TSERVO, P_RATE, P_KPLIM,
    P_KILIM, P_PMAX, P_OMMAX, P_PG0, P_PCONST, P_PSCALE, P_LAMC, P_CP0,
    P_CPMAX = P_CP0 + 14, P_BETAMIN, P_BETAMAX, N_PARAMS
};

/* One run's fixed inputs: parameters, load events, mode and base load */
typedef struct {
    double p[N_PARAMS], *ev_t, *ev_dp;
    Py_ssize_t n_ev;
    int mode;
    double base;
} Model;

/* aero._cp_calibrated */
static double cp(const double *p, double lam, double beta)
{
    const double *c = p + P_CP0;
    double w = c[0], D = c[1], E = c[2], U = c[3], q = c[4], lam0 = c[5];
    double a1 = c[6], a2 = c[7], a3 = c[8], a4 = c[9], L = c[10], bb = c[11];
    double p1 = c[12], p2 = c[13];
    double r = beta / p2;
    double b2 = beta * beta, b3 = b2 * beta, b4 = b3 * beta;
    double lr = lam0 + p1 * beta * exp(-(r * r)) - L * (1.0 - exp(-beta / bb));
    double u = (lam - lr) / w;
    double s = u * u;
    double g = (1.0 - D * s / (1.0 + s) - E * s * s / (1.0 + s * s))
        * exp(-pow(fabs(u / U), q));
    double h = exp(-(a1 * beta + a2 * b2 + a3 * b3 + a4 * b4));
    double v = p[P_CPMAX] * h * g;
    if (v < 0.0)
        return 0.0;
    return v > BETZ ? BETZ : v;  /* NaN stays NaN */
}

/* control.limiter_pi: returns the output, stores d integ/dt in *di */
static double limiter_pi(double kp, double ki, double err, double integ,
                         double *di)
{
    double u = kp * err + integ;
    *di = ki * err;
    if (u <= 0.0) {
        u = 0.0;
        if (err < 0.0)
            *di = integ > 0.0 ? ki * err : 0.0;
    }
    return u;
}

/* _ode_py._load: the base load plus every event at or before t */
static double load(const Model *m, double t)
{
    double pl = m->base;
    for (Py_ssize_t k = 0; k < m->n_ev; k++)
        if (t >= m->ev_t[k])
            pl += m->ev_dp[k];
    return pl;
}

/* _ode_py._deriv: the N state derivatives, then the N_OUT outputs at x,
 * under load pl */
static void deriv(const Model *m, const double *x, double pl, double *out)
{
    const double *p = m->p;
    double om_g = x[1], p_g = x[2];
    if (m->mode == 0) {  /* the WT side, rho_1 with it, is held */
        memset(out, 0, N * sizeof(double));
        out[1] = (p_g + p[P_PCONST] - pl) / (p[P_JG] * om_g);
        out[2] = (-(p_g - p[P_PG0]) - p[P_KG] * (om_g - 1.0)) / p[P_TG];
        out[N] = out[N + 1] = p[P_PCONST];
        out[N + 2] = om_g;
        return;
    }
    double vdc = x[3], om_r = x[5], xg = x[6], xm = x[7], beta = x[8];
    /* control.pd_filter_realization, both converters on one t_dc */
    double tdc = p[P_TDC];
    double u = vdc - 1.0;
    double yg = (p[P_KTG] - p[P_KDG] / tdc) * xg + (p[P_KDG] / tdc) * u;
    double ym = (p[P_KTM] - p[P_KDM] / tdc) * xm + (p[P_KDM] / tdc) * u;
    double p_pmsg = p[P_BM] * sin(x[4]);
    double p_gsc = p[P_BG] * sin(x[0]);
    double p_wt = p[P_PSCALE] * cp(p, p[P_LAMC] * om_r, beta);
    double disp, dipw;
    double usp = limiter_pi(p[P_KPLIM], p[P_KILIM], om_r - p[P_OMMAX], x[9],
                            &disp);
    double upw = limiter_pi(p[P_KPLIM], p[P_KILIM], p_pmsg - p[P_PMAX], x[10],
                            &dipw);
    /* control.pitch_rate */
    double bref = p[P_BETADEL] + p[P_KP] * (om_r - p[P_OMDEL]) + usp + upw;
    bref = bref < p[P_BETAMIN] ? p[P_BETAMIN]
        : bref > p[P_BETAMAX] ? p[P_BETAMAX] : bref;
    double dbeta = (bref - beta) / p[P_TSERVO];
    dbeta = dbeta > p[P_RATE] ? p[P_RATE]
        : dbeta < -p[P_RATE] ? -p[P_RATE] : dbeta;
    double w_gsc = 1.0 + yg;
    out[0] = w_gsc - om_g;
    out[1] = (p_g + p_gsc - pl) / (p[P_JG] * om_g);
    out[2] = (-(p_g - p[P_PG0]) - p[P_KG] * (om_g - 1.0)) / p[P_TG];
    out[3] = (p_pmsg - p_gsc) / (p[P_CDC] * vdc);
    out[4] = om_r - (p[P_OMDEL] + ym);
    out[5] = (p_wt - p_pmsg) / (p[P_JWT] * om_r);
    out[6] = (u - xg) / tdc;
    out[7] = (u - xm) / tdc;
    out[8] = dbeta;
    out[9] = disp;
    out[10] = dipw;
    out[N] = p_wt;
    out[N + 1] = p_gsc;
    out[N + 2] = w_gsc;
}

/* Read the state into x, and the parameters and load events into *m: ev_t
 * and ev_dp into one new PyMem block at m->ev_t, which the caller frees; a
 * missing ev_t or ev_dp is empty.  Returns 0, or -1 with an exception set. */
static int parse(double *x, Model *m, PyObject *in[4])
{
    PyObject *seq[4] = {NULL};
    double *to[4] = {x, m->p};
    int i, rc = -1;
    for (i = 0; i < 4; i++)
        if (!(seq[i] = in[i] ? PySequence_Fast(in[i], "expected a sequence "
                                               "of numbers") : PyTuple_New(0)))
            goto done;
    m->n_ev = PySequence_Fast_GET_SIZE(seq[2]);
    if (PySequence_Fast_GET_SIZE(seq[0]) != N
        || PySequence_Fast_GET_SIZE(seq[1]) != N_PARAMS
        || PySequence_Fast_GET_SIZE(seq[3]) != m->n_ev) {
        PyErr_Format(PyExc_ValueError, "expected %d states, %d parameters "
                     "and one ev_dp per ev_t", N, N_PARAMS);
        goto done;
    }
    if (!(m->ev_t = PyMem_Malloc(2 * m->n_ev * sizeof(double)))) {
        PyErr_NoMemory();
        goto done;
    }
    to[2] = m->ev_t;
    to[3] = m->ev_dp = m->ev_t + m->n_ev;
    for (i = 0; i < 4; i++)
        for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(seq[i]); k++)
            if ((to[i][k] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(
                     seq[i], k))) == -1.0 && PyErr_Occurred())
                goto done;
    rc = 0;
done:
    for (i = 0; i < 4; i++)
        Py_XDECREF(seq[i]);
    return rc;
}

static PyObject *simulate(PyObject *Py_UNUSED(self), PyObject *args,
                          PyObject *kw)
{
    static char *kwlist[] = {"x0", "params", "mode", "dt", "n_steps",
                             "stride", "base_load", "ev_t", "ev_dp", NULL};
    PyObject *in[4] = {NULL}, *res = NULL;
    int n_steps, stride, i, bad = -1, fixed = 0;
    Model m = {.ev_t = NULL};
    double h, x[N], xs[N], k1[N + N_OUT], k2[N + N_OUT], k3[N + N_OUT],
        k4[N + N_OUT];
    double l[3], fl[3];  /* a step's loads; those under which x is fixed */
    if (!PyArg_ParseTupleAndKeywords(args, kw, "OOidiid|OO:simulate", kwlist,
                                     &in[0], &in[1], &m.mode, &h, &n_steps,
                                     &stride, &m.base, &in[2], &in[3]))
        return NULL;
    if (n_steps < 0 || stride < 1)
        return PyErr_Format(PyExc_ValueError,
                            "n_steps must be >= 0 and stride >= 1");
    /* a row is t, the N states and, from the first RK4 stage of the step
     * that leaves the row's state, the N_OUT outputs */
    const Py_ssize_t w = 1 + N + N_OUT, n_rows = 1 + n_steps / stride;
    if (n_rows > PY_SSIZE_T_MAX / w / (Py_ssize_t)sizeof(double))
        return PyErr_NoMemory();
    if (parse(x, &m, in) < 0
        || !(res = PyByteArray_FromStringAndSize(
                 NULL, n_rows * w * (Py_ssize_t)sizeof(double))))
        goto done;
    double *rows = (double *)PyByteArray_AS_STRING(res), *out = rows + w;
    rows[0] = 0.0;
    memcpy(rows + 1, x, sizeof x);
    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n_steps; i++) {
        double t0 = i * h;
        l[0] = load(&m, t0);
        l[1] = load(&m, t0 + 0.5 * h);
        l[2] = load(&m, t0 + h);
        if (!fixed || memcmp(l, fl, sizeof l)) {
            deriv(&m, x, l[0], k1);
            for (int j = 0; j < N; j++)
                xs[j] = x[j] + 0.5 * h * k1[j];
            deriv(&m, xs, l[1], k2);
            for (int j = 0; j < N; j++)
                xs[j] = x[j] + 0.5 * h * k2[j];
            deriv(&m, xs, l[1], k3);
            for (int j = 0; j < N; j++)
                xs[j] = x[j] + h * k3[j];
            deriv(&m, xs, l[2], k4);
            for (int j = 0; j < N; j++)
                xs[j] = x[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j]
                                          + k4[j]);
            for (int j = N - 1; j >= 0; j--)
                if (!(fabs(xs[j]) <= 1e6))  /* also catches NaN */
                    bad = j;
            if (bad >= 0)
                break;
            fixed = !memcmp(xs, x, sizeof x);
            memcpy(fl, l, sizeof l);
            memcpy(x, xs, sizeof x);
        }
        if (i % stride == 0)  /* k1 is the last integrated step's: at x */
            memcpy(rows + (Py_ssize_t)(i / stride) * w + 1 + N, k1 + N,
                   N_OUT * sizeof(double));
        if ((i + 1) % stride == 0) {
            out[0] = (i + 1) * h;
            memcpy(out + 1, x, sizeof x);
            out += w;
        }
    }
    if (bad < 0 && n_steps % stride == 0) {  /* the final row's outputs */
        deriv(&m, x, load(&m, (double)n_steps * h), k1);
        memcpy(out - w + 1 + N, k1 + N, N_OUT * sizeof(double));
    }
    Py_END_ALLOW_THREADS
    if (bad >= 0) {  /* the time formatted as Python's f"{t:.6f}" */
        char *s = PyOS_double_to_string(i * h + h, 'f', 6, 0, NULL);
        Py_CLEAR(res);
        if (s)
            PyErr_Format(PyExc_FloatingPointError,
                         "state %d diverged at t=%s", bad, s);
        PyMem_Free(s);
    }
done:
    PyMem_Free(m.ev_t);
    return res;
}

/* The longest '%.17g' of a double: "-4.9406564584124654e-324" */
#define G17_MAX 24

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;
#define E16 10000000000000000ULL
#define E17 100000000000000000ULL
static u128 pow5[33];  /* 5^k for k = 0..32, filled at import */

/* '%.17g' % v into s, for finite v with 1e-16 <= |v| < 1e17; returns the
 * length, or 0 where v is outside that range.
 *
 * With v = m 2^e (m < 2^53) and X = floor(log10 |v|), the 17 significant
 * digits are v 10^k rounded to an integer, k = 16 - X in 0..32.  That is
 * m 5^k 2^(e+k): an exact product below 2^128, shifted by e + k, rounded
 * half to even on the exact remainder: the correctly rounded digits, as
 * CPython's formatter gives them.  X comes from the unrounded quotient,
 * which lies in [10^16, 10^17); where rounding carries to 10^17 the digits
 * become 10^16 and X grows by one, as C99 %g takes X after rounding. */
static int g17_fast(double v, char *s)
{
    double a = fabs(v);
    if (!(a >= 1e-16 && a < 1e17))
        return 0;
    uint64_t bits, m;
    memcpy(&bits, &v, sizeof bits);
    int e = (int)(bits >> 52 & 0x7ff) - 1075;
    m = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
    /* |v| >= 2^(e+52), so X >= x and k <= 16 - x */
    int x = (int)floor((e + 52) * 0.30102999566398120);
    int k = 16 - x < 32 ? 16 - x : 32, sh;
    u128 n, q;
    for (;;) {
        n = (u128)m * pow5[k];
        sh = e + k;
        q = sh >= 0 ? n << sh : n >> -sh;
        if (q < E17 || k == 0)
            break;
        k--;
    }
    if (q < E16 || q >= E17)  /* 1e-16 itself lies below 10^-16 */
        return 0;
    int X = 16 - k;
    if (sh < 0) {
        u128 half = (u128)1 << (-sh - 1), r = n & ((half << 1) - 1);
        if (r > half || (r == half && (q & 1)))
            q++;
        if (q == E17) {
            q = E16;
            X++;
        }
    }
    char dig[17], *p = s;
    uint64_t d = (uint64_t)q;
    for (int i = 16; i >= 0; i--) {
        dig[i] = (char)('0' + d % 10);
        d /= 10;
    }
    int last = 16;  /* the last digit kept: trailing zeros are dropped */
    while (dig[last] == '0')
        last--;
    if (v < 0)
        *p++ = '-';
    if (X < -4 || X >= 17) {
        *p++ = dig[0];
        if (last > 0) {
            *p++ = '.';
            memcpy(p, dig + 1, last);
            p += last;
        }
        int ax = X < 0 ? -X : X;
        *p++ = 'e';
        *p++ = X < 0 ? '-' : '+';
        *p++ = (char)('0' + ax / 10);
        *p++ = (char)('0' + ax % 10);
    } else if (X >= 0) {
        memcpy(p, dig, X + 1);
        p += X + 1;
        if (last > X) {
            *p++ = '.';
            memcpy(p, dig + X + 1, last - X);
            p += last - X;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int i = 0; i < -X - 1; i++)
            *p++ = '0';
        memcpy(p, dig, last + 1);
        p += last + 1;
    }
    return (int)(p - s);
}
#else
static int g17_fast(double v, char *s)
{
    (void)v;
    (void)s;
    return 0;
}
#endif

/* '%.17g' % v into s (G17_MAX bytes); returns the length, or -1 with an
 * exception set */
static int g17(double v, char *s)
{
    int len = g17_fast(v, s);
    if (len)
        return len;
    char *t = PyOS_double_to_string(v, 'g', 17, 0, NULL);
    if (!t)
        return -1;
    size_t n = strlen(t);
    if (n <= G17_MAX)
        memcpy(s, t, n);
    PyMem_Free(t);
    if (n > G17_MAX) {
        PyErr_SetString(PyExc_SystemError, "%.17g longer than expected");
        return -1;
    }
    return (int)n;
}

static PyObject *csv_rows(PyObject *Py_UNUSED(self), PyObject *columns)
{
    /* per column: its buffer, and the bits, offset and length of the value
     * last written */
    typedef struct {
        Py_buffer b;
        uint64_t bits;
        Py_ssize_t at;
        int len;
    } Col;
    PyObject *seq;
    if (!(seq = PySequence_Fast(columns,
                                "csv_rows expects a sequence of columns")))
        return NULL;
    Py_ssize_t nc = PySequence_Fast_GET_SIZE(seq), nr = 0, i, j;
    Col *c = PyMem_Calloc(nc ? nc : 1, sizeof *c);
    PyObject *res = NULL;
    if (!c) {
        PyErr_NoMemory();
        goto done;
    }
    for (j = 0; j < nc; j++) {
        Py_buffer *b = &c[j].b;
        if (PyObject_GetBuffer(PySequence_Fast_GET_ITEM(seq, j), b,
                               PyBUF_STRIDES | PyBUF_FORMAT) < 0)
            goto done;
        if (b->ndim != 1 || !b->format || strcmp(b->format, "d")
            || (j && b->shape[0] != nr)) {
            PyErr_SetString(PyExc_ValueError, "csv_rows expects 1-D float64 "
                            "columns of equal length");
            goto done;
        }
        nr = b->shape[0];
    }
    if (!nr || !nc) {
        res = PyUnicode_New(0, 0);
        goto done;
    }
    if (nr > PY_SSIZE_T_MAX / nc / (G17_MAX + 1)) {
        PyErr_NoMemory();
        goto done;
    }
    /* one worst-case buffer, written in place and shrunk to fit */
    if (!(res = PyUnicode_New(nr * nc * (G17_MAX + 1), 127)))
        goto done;
    char *buf = (char *)PyUnicode_1BYTE_DATA(res), *p = buf;
    for (i = 0; i < nr; i++)
        for (j = 0; j < nc; j++) {
            Col *cj = c + j;
            double v;
            uint64_t bits;
            memcpy(&v, (char *)cj->b.buf + i * cj->b.strides[0], sizeof v);
            memcpy(&bits, &v, sizeof bits);
            if (i && bits == cj->bits)  /* the previous row's text */
                memcpy(p, buf + cj->at, cj->len);
            else if ((cj->len = g17(v, p)) < 0) {
                Py_CLEAR(res);
                goto done;
            }
            cj->bits = bits;
            cj->at = p - buf;
            p += cj->len;
            *p++ = j + 1 < nc ? ',' : '\n';
        }
    if (PyUnicode_Resize(&res, p - buf) < 0)
        Py_CLEAR(res);
done:
    if (c)  /* a zeroed or failed buffer has no obj to release */
        for (j = 0; j < nc; j++)
            PyBuffer_Release(&c[j].b);
    PyMem_Free(c);
    Py_DECREF(seq);
    return res;
}

static PyMethodDef methods[] = {
    {"simulate", (PyCFunction)(void (*)(void))simulate,
     METH_VARARGS | METH_KEYWORDS,
     "simulate(x0, params, mode, dt, n_steps, stride, base_load, ev_t=(), "
     "ev_dp=())\n--\n\nFixed-step RK4 over n_steps; records every `stride` "
     "steps (plus t=0)\nas rows (t, 11 states, P_wt, P_gsc, w_gsc).  Raises "
     "FloatingPointError on\ndivergence (any |state| > 1e6)."},
    {"csv_rows", csv_rows, METH_O,
     "csv_rows(columns)\n--\n\nThe CSV rows of equal-length 1-D float64 "
     "columns, no header: each\nvalue as '%.17g' % v, joined by ',', each "
     "row ended by '\\n'."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ode_cy",
    "Compiled kernel: closed-loop RK4 integrator and trace CSV rows.", -1,
    methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__ode_cy(void)
{
#ifdef __SIZEOF_INT128__
    pow5[0] = 1;
    for (int k = 1; k < 33; k++)
        pow5[k] = pow5[k - 1] * 5;
#endif
    PyObject *mod = PyModule_Create(&module);
    if (mod && PyModule_AddStringConstant(mod, "BACKEND", "cython") < 0)
        Py_CLEAR(mod);
    return mod;
}
