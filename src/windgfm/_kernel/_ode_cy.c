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
 * those of the full integration. */
#define PY_SSIZE_T_CLEAN
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <Python.h>
#include <numpy/arrayobject.h>
#include <math.h>

#define N 13
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
    const double *p, *ev_t, *ev_dp;
    npy_intp n_ev;
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
    return v < BETZ ? v : BETZ;
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
    for (npy_intp k = 0; k < m->n_ev; k++)
        if (t >= m->ev_t[k])
            pl += m->ev_dp[k];
    return pl;
}

/* _ode_py._deriv: the N state derivatives, then the N_OUT outputs at x,
 * under load pl */
static void deriv(const Model *m, const double *x, double pl, double *out)
{
    const double *p = m->p;
    double om_g = x[2], p_g = x[3];
    if (m->mode == 0) {
        memset(out, 0, N * sizeof(double));
        out[1] = om_g - 1.0;
        out[2] = (p_g + p[P_PCONST] - pl) / (p[P_JG] * om_g);
        out[3] = (-(p_g - p[P_PG0]) - p[P_KG] * (om_g - 1.0)) / p[P_TG];
        out[N] = out[N + 1] = p[P_PCONST];
        out[N + 2] = om_g;
        return;
    }
    double vdc = x[4], om_r = x[7], xg = x[8], xm = x[9], beta = x[10];
    /* control.pd_filter_realization, both converters on one t_dc */
    double tdc = p[P_TDC];
    double u = vdc - 1.0;
    double yg = (p[P_KTG] - p[P_KDG] / tdc) * xg + (p[P_KDG] / tdc) * u;
    double ym = (p[P_KTM] - p[P_KDM] / tdc) * xm + (p[P_KDM] / tdc) * u;
    double p_pmsg = p[P_BM] * sin(x[6] - x[5]);
    double p_gsc = p[P_BG] * sin(x[0] - x[1]);
    double p_wt = p[P_PSCALE] * cp(p, p[P_LAMC] * om_r, beta);
    double disp, dipw;
    double usp = limiter_pi(p[P_KPLIM], p[P_KILIM], om_r - p[P_OMMAX], x[11],
                            &disp);
    double upw = limiter_pi(p[P_KPLIM], p[P_KILIM], p_pmsg - p[P_PMAX], x[12],
                            &dipw);
    /* control.pitch_rate */
    double bref = p[P_BETADEL] + p[P_KP] * (om_r - p[P_OMDEL]) + usp + upw;
    bref = bref < p[P_BETAMIN] ? p[P_BETAMIN]
        : bref > p[P_BETAMAX] ? p[P_BETAMAX] : bref;
    double dbeta = (bref - beta) / p[P_TSERVO];
    dbeta = dbeta > p[P_RATE] ? p[P_RATE]
        : dbeta < -p[P_RATE] ? -p[P_RATE] : dbeta;
    double w_gsc = 1.0 + yg;
    out[0] = w_gsc - 1.0;
    out[1] = om_g - 1.0;
    out[2] = (p_g + p_gsc - pl) / (p[P_JG] * om_g);
    out[3] = (-(p_g - p[P_PG0]) - p[P_KG] * (om_g - 1.0)) / p[P_TG];
    out[4] = (p_pmsg - p_gsc) / (p[P_CDC] * vdc);
    out[5] = (p[P_OMDEL] + ym) - p[P_OMDEL];
    out[6] = om_r - p[P_OMDEL];
    out[7] = (p_wt - p_pmsg) / (p[P_JWT] * om_r);
    out[8] = (u - xg) / tdc;
    out[9] = (u - xm) / tdc;
    out[10] = dbeta;
    out[11] = disp;
    out[12] = dipw;
    out[N] = p_wt;
    out[N + 1] = p_gsc;
    out[N + 2] = w_gsc;
}

/* Parse the state and the model inputs into contiguous float64 vectors
 * a[0..3] (new references, released by the caller; a missing ev_t or ev_dp
 * is empty) and fill *m.  Returns 0, or -1 with an exception set. */
static int parse(PyArrayObject *a[4], Model *m, PyObject *x, PyObject *params,
                 int mode, double base, PyObject *ev_t, PyObject *ev_dp)
{
    PyObject *obj[4] = {x, params, ev_t, ev_dp};
    npy_intp zero = 0;
    for (int i = 0; i < 4; i++)
        if (!(a[i] = (PyArrayObject *)(obj[i]
                ? PyArray_FROMANY(obj[i], NPY_DOUBLE, 1, 1, NPY_ARRAY_IN_ARRAY)
                : PyArray_ZEROS(1, &zero, NPY_DOUBLE, 0))))
            return -1;
    if (PyArray_SIZE(a[0]) != N || PyArray_SIZE(a[1]) != N_PARAMS
        || PyArray_SIZE(a[3]) != PyArray_SIZE(a[2])) {
        PyErr_Format(PyExc_ValueError, "expected %d states, %d parameters "
                     "and one ev_dp per ev_t", N, N_PARAMS);
        return -1;
    }
    *m = (Model){PyArray_DATA(a[1]), PyArray_DATA(a[2]), PyArray_DATA(a[3]),
                 PyArray_SIZE(a[2]), mode, base};
    return 0;
}

static void release(PyArrayObject *a[4])
{
    for (int i = 0; i < 4; i++)
        Py_XDECREF(a[i]);
}

static PyObject *simulate(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"x0", "params", "mode", "dt", "n_steps",
                             "stride", "base_load", "ev_t", "ev_dp", NULL};
    PyObject *x0, *params, *ev_t = NULL, *ev_dp = NULL;
    PyArrayObject *a[4] = {NULL}, *res;
    double h, base;
    int mode, n_steps, stride, i, bad = -1;
    Model m;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "OOidiid|OO:simulate", kwlist,
                                     &x0, &params, &mode, &h, &n_steps,
                                     &stride, &base, &ev_t, &ev_dp))
        return NULL;
    if (n_steps < 0 || stride < 1)
        return PyErr_Format(PyExc_ValueError,
                            "n_steps must be >= 0 and stride >= 1");
    npy_intp dims[2] = {1 + n_steps / stride, 1 + N + N_OUT};
    if (parse(a, &m, x0, params, mode, base, ev_t, ev_dp) < 0
        || !(res = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE))) {
        release(a);
        return NULL;
    }
    /* a row is t, the N states and, from the first RK4 stage of the step
     * that leaves the row's state, the N_OUT outputs */
    const int w = 1 + N + N_OUT;
    double x[N], xs[N], k1[N + N_OUT], k2[N + N_OUT], k3[N + N_OUT],
        k4[N + N_OUT];
    double l[3], fl[3];  /* a step's loads; those under which x is fixed */
    int fixed = 0;
    double *rows = PyArray_DATA(res), *out = rows + w;
    memcpy(x, PyArray_DATA(a[0]), sizeof x);
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
            memcpy(rows + (npy_intp)(i / stride) * w + 1 + N, k1 + N,
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
    release(a);
    if (bad >= 0) {  /* the time formatted as Python's f"{t:.6f}" */
        char *s = PyOS_double_to_string(i * h + h, 'f', 6, 0, NULL);
        Py_DECREF(res);
        if (s)
            PyErr_Format(PyExc_FloatingPointError,
                         "state %d diverged at t=%s", bad, s);
        PyMem_Free(s);
        return NULL;
    }
    return (PyObject *)res;
}

static PyMethodDef methods[] = {
    {"simulate", (PyCFunction)simulate, METH_VARARGS | METH_KEYWORDS,
     "simulate(x0, params, mode, dt, n_steps, stride, base_load, ev_t=(), "
     "ev_dp=())\n--\n\nFixed-step RK4 over n_steps; records every `stride` "
     "steps (plus t=0)\nas rows (t, 13 states, P_wt, P_gsc, w_gsc).  Raises "
     "FloatingPointError on\ndivergence (any |state| > 1e6)."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ode_cy",
    "Compiled kernel: closed-loop RK4 integrator.", -1, methods
};

PyMODINIT_FUNC PyInit__ode_cy(void)
{
    import_array();
    PyObject *mod = PyModule_Create(&module);
    if (mod && PyModule_AddStringConstant(mod, "BACKEND", "cython") < 0)
        Py_CLEAR(mod);
    return mod;
}
