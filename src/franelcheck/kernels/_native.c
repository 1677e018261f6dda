/* Compiled table kernels: moduli below 2**63, 128-bit intermediates.
 *
 * Mirror of pure.py: the same eight functions, positional signatures and
 * loops, and bit-identical lists.  The dispatcher in __init__.py validates
 * and reduces the parameters first; the checks here only keep a direct call
 * from dividing by zero, overflowing, or indexing out of bounds.  Every
 * argument must be an int in [0, 2**64) (else TypeError or OverflowError),
 * and m < 2**63 keeps the sum in addmod below 2**64.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned long long u64;
typedef unsigned __int128 u128;
typedef __int128 i128;

static inline u64 mulmod(u64 a, u64 b, u64 m) { return (u64)((u128)a * b % m); }

/* a + b mod m for a, b in [0, m). */
static inline u64 addmod(u64 a, u64 b, u64 m) { return a + b >= m ? a + b - m : a + b; }

static u64 powmod(u64 b, u64 e, u64 m)
{
    u64 r = 1 % m;
    for (; e; e >>= 1) {
        if (e & 1)
            r = mulmod(r, b, m);
        b = mulmod(b, b, m);
    }
    return r;
}

/* Inverse of a mod m by extended Euclid; -1 with ValueError if gcd(a, m) > 1. */
static int invmod(u64 a, u64 m, u64 *out)
{
    i128 t = 0, newt = 1, r = m, newr = a % m, q, tmp;
    while (newr != 0) {
        q = r / newr;
        tmp = t - q * newt;
        t = newt;
        newt = tmp;
        tmp = r - q * newr;
        r = newr;
        newr = tmp;
    }
    if (r != 1) {
        PyErr_SetString(PyExc_ValueError, "base is not invertible for the given modulus");
        return -1;
    }
    *out = (u64)(t < 0 ? t + (i128)m : t);
    return 0;
}

/* Inverses of 1..n in inv[1..n], inv[0] = 0: batch inversion, with the
 * prefix products kept in inv itself until the backward pass replaces them. */
static int fill_inverses(u64 *inv, u64 n, u64 m)
{
    u64 acc = 1, acc_inv;
    inv[0] = 1;
    for (u64 i = 1; i <= n; i++)
        inv[i] = acc = mulmod(acc, i, m);
    if (invmod(acc, m, &acc_inv) < 0)
        return -1;
    for (u64 i = n; i > 0; i--) {
        inv[i] = mulmod(acc_inv, inv[i - 1], m);
        acc_inv = mulmod(acc_inv, i, m);
    }
    inv[0] = 0;
    return 0;
}

/* k! and (k!)^-1 mod m for k = 0..n. */
static int fill_factorials(u64 *fact, u64 *inv_fact, u64 n, u64 m)
{
    fact[0] = 1 % m;
    for (u64 i = 1; i <= n; i++)
        fact[i] = mulmod(fact[i - 1], i, m);
    if (invmod(fact[n], m, &inv_fact[n]) < 0)
        return -1;
    for (u64 i = n; i > 0; i--)
        inv_fact[i - 1] = mulmod(inv_fact[i], i, m);
    return 0;
}

/* binom(2k,k) for k < len from the ratio 2(2k+1)/(k+1); needs inv[1..len-1]. */
static void fill_central(u64 *central, const u64 *inv, u64 len, u64 m)
{
    central[0] = 1 % m;
    for (u64 k = 0; k + 1 < len; k++)
        central[k + 1] = mulmod(mulmod(central[k], (4 * k + 2) % m, m), inv[k + 1], m);
}

/* x^k for k < len. */
static void fill_powers(u64 *pw, u64 x, u64 len, u64 m)
{
    pw[0] = 1 % m;
    for (u64 k = 1; k < len; k++)
        pw[k] = mulmod(pw[k - 1], x, m);
}

/* One block for `count` tables of n entries each; the caller frees it. */
static u64 *alloc_tables(u64 count, u64 n)
{
    if (n > (u64)PY_SSIZE_T_MAX / sizeof(u64) / count)
        return (u64 *)PyErr_NoMemory();
    u64 *buf = PyMem_Malloc(count * n * sizeof(u64));
    return buf ? buf : (u64 *)PyErr_NoMemory();
}

static PyObject *to_list(const u64 *buf, u64 n)
{
    PyObject *list = PyList_New((Py_ssize_t)n);
    if (list == NULL)
        return NULL;
    for (u64 i = 0; i < n; i++) {
        PyObject *v = PyLong_FromUnsignedLongLong(buf[i]);
        if (v == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, (Py_ssize_t)i, v);
    }
    return list;
}

/* Parse nargs == want positional ints into a[]; a[1] is the modulus. */
static int parse_args(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t want,
                      const char *name, u64 *a)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < want; i++) {
        a[i] = PyLong_AsUnsignedLongLong(args[i]);
        if (a[i] == (u64)-1 && PyErr_Occurred())
            return -1;
    }
    if (a[1] == 0 || a[1] >> 63) {
        PyErr_Format(PyExc_ValueError, "%s() needs 1 <= m < 2**63, got m=%llu", name, a[1]);
        return -1;
    }
    return 0;
}

/* Parse (p, m, [param,] length) and check length <= p. */
static int parse_table_args(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t want,
                            const char *name, u64 *a)
{
    if (parse_args(args, nargs, want, name, a) < 0)
        return -1;
    if (a[want - 1] > a[0]) {
        PyErr_Format(PyExc_ValueError, "length must be <= p, got %llu > %llu", a[want - 1], a[0]);
        return -1;
    }
    return 0;
}

static PyObject *inverse_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[3], *inv;
    PyObject *res = NULL;
    if (parse_args(args, nargs, 3, "inverse_table", a) < 0)
        return NULL;
    if (a[2] >= a[0])
        return PyErr_Format(PyExc_ValueError, "inverse table needs n < p, got n=%llu, p=%llu",
                            a[2], a[0]);
    if ((inv = alloc_tables(1, a[2] + 1)) == NULL)
        return NULL;
    if (fill_inverses(inv, a[2], a[1]) == 0)
        res = to_list(inv, a[2] + 1);
    PyMem_Free(inv);
    return res;
}

static PyObject *franel_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[3], *inv, *out;
    PyObject *res = NULL;
    if (parse_table_args(args, nargs, 3, "franel_table", a) < 0)
        return NULL;
    u64 m = a[1], len = a[2];
    if (len == 0)
        return PyList_New(0);
    if ((inv = alloc_tables(2, len)) == NULL)
        return NULL;
    out = inv + len;
    if (fill_inverses(inv, len - 1, m) == 0) {
        out[0] = 1 % m;
        if (len > 1)
            out[1] = 2 % m;
        for (u64 n = 1; n + 1 < len; n++) {
            u64 c1 = (u64)(((u128)7 * n * n + 7 * n + 2) % m);
            u64 c0 = (u64)((u128)8 * n * n % m);
            u64 t = addmod(mulmod(c1, out[n], m), mulmod(c0, out[n - 1], m), m);
            out[n + 1] = mulmod(mulmod(t, inv[n + 1], m), inv[n + 1], m);
        }
        res = to_list(out, len);
    }
    PyMem_Free(inv);
    return res;
}

static PyObject *central_binom_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[3], *inv;
    PyObject *res = NULL;
    if (parse_table_args(args, nargs, 3, "central_binom_table", a) < 0)
        return NULL;
    u64 m = a[1], len = a[2];
    if (len == 0)
        return PyList_New(0);
    if ((inv = alloc_tables(2, len)) == NULL)
        return NULL;
    if (fill_inverses(inv, len - 1, m) == 0) {
        fill_central(inv + len, inv, len, m);
        res = to_list(inv + len, len);
    }
    PyMem_Free(inv);
    return res;
}

static PyObject *binom_shift_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[4], *inv, *out;
    PyObject *res = NULL;
    if (parse_table_args(args, nargs, 4, "binom_shift_table", a) < 0)
        return NULL;
    u64 m = a[1], rbar = a[2] % m, len = a[3];
    if (len == 0)
        return PyList_New(0);
    if ((inv = alloc_tables(2, len)) == NULL)
        return NULL;
    out = inv + len;
    if (fill_inverses(inv, len - 1, m) == 0) {
        out[0] = 1 % m;
        for (u64 j = 1; j < len; j++)
            out[j] = mulmod(mulmod(out[j - 1], addmod(rbar, j % m, m), m), inv[j], m);
        res = to_list(out, len);
    }
    PyMem_Free(inv);
    return res;
}

static PyObject *fpoly_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[4], *fact, *inv_fact, *inv, *central, *xpw, *out;
    PyObject *res = NULL;
    if (parse_table_args(args, nargs, 4, "fpoly_table", a) < 0)
        return NULL;
    u64 m = a[1], x = a[2] % m, len = a[3];
    if (len == 0)
        return PyList_New(0);
    if ((fact = alloc_tables(6, len)) == NULL)
        return NULL;
    inv_fact = fact + len;
    inv = inv_fact + len;
    central = inv + len;
    xpw = central + len;
    out = xpw + len;
    if (fill_factorials(fact, inv_fact, len - 1, m) == 0 && fill_inverses(inv, len - 1, m) == 0) {
        fill_central(central, inv, len, m);
        fill_powers(xpw, x, len, m);
        for (u64 l = 0; l < len; l++) {
            u128 acc = 0;
            for (u64 d = 0; 2 * d <= l; d++) {
                u64 k = l - d;
                u64 t = mulmod(mulmod(inv_fact[d], inv_fact[d], m), inv_fact[l - 2 * d], m);
                acc += mulmod(mulmod(t, central[k], m), xpw[k], m);
            }
            out[l] = mulmod((u64)(acc % m), fact[l], m);
        }
        res = to_list(out, len);
    }
    PyMem_Free(fact);
    return res;
}

static PyObject *genfranel_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[4], *fact, *inv_fact, *out;
    PyObject *res = NULL;
    if (parse_table_args(args, nargs, 4, "genfranel_table", a) < 0)
        return NULL;
    u64 m = a[1], r = a[2], len = a[3];
    if (r < 1)
        return PyErr_Format(PyExc_ValueError, "power must be >= 1, got %llu", r);
    if (len == 0)
        return PyList_New(0);
    if ((fact = alloc_tables(3, len)) == NULL)
        return NULL;
    inv_fact = fact + len;
    out = inv_fact + len;
    if (fill_factorials(fact, inv_fact, len - 1, m) == 0) {
        for (u64 k = 0; k < len; k++) {
            u128 acc = 0;
            for (u64 j = 0; j <= k; j++) {
                u64 b = mulmod(mulmod(fact[k], inv_fact[j], m), inv_fact[k - j], m);
                acc += powmod(b, r, m);
            }
            out[k] = (u64)(acc % m);
        }
        res = to_list(out, len);
    }
    PyMem_Free(fact);
    return res;
}

static PyObject *weighted_cube_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[4], *fact, *inv_fact, *wpw, *out;
    PyObject *res = NULL;
    if (parse_table_args(args, nargs, 4, "weighted_cube_table", a) < 0)
        return NULL;
    u64 m = a[1], w = a[2] % m, len = a[3];
    if (len == 0)
        return PyList_New(0);
    if ((fact = alloc_tables(4, len)) == NULL)
        return NULL;
    inv_fact = fact + len;
    wpw = inv_fact + len;
    out = wpw + len;
    if (fill_factorials(fact, inv_fact, len - 1, m) == 0) {
        fill_powers(wpw, w, len, m);
        for (u64 n = 0; n < len; n++) {
            u128 acc = 0;
            for (u64 k = 0; k <= n; k++) {
                u64 b = mulmod(mulmod(fact[n], inv_fact[k], m), inv_fact[n - k], m);
                acc += mulmod(mulmod(mulmod(b, b, m), b, m), wpw[k], m);
            }
            out[n] = (u64)(acc % m);
        }
        res = to_list(out, len);
    }
    PyMem_Free(fact);
    return res;
}

static PyObject *triangle_weighted_sums(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[2], *inv, *central, *out;
    PyObject *res = NULL;
    if (parse_args(args, nargs, 2, "triangle_weighted_sums", a) < 0)
        return NULL;
    u64 p = a[0], m = a[1];
    if (p < 2)
        return PyList_New(0);
    /* acc sums under p terms (2n+1) b < 2pm, so p < 2**32 keeps it in 128 bits */
    if (p >> 32)
        return PyErr_NoMemory();
    if ((inv = alloc_tables(3, p)) == NULL)
        return NULL;
    central = inv + p;
    out = central + p;
    if (fill_inverses(inv, p - 1, m) == 0) {
        fill_central(central, inv, p, m);
        for (u64 k = 0; k + 1 < p; k++) {
            u64 b = 1 % m;
            u128 acc = 0;
            for (u64 n = k; n < p; n++) {
                acc += (u128)(2 * n + 1) * b;
                if (n + 1 < p)
                    b = mulmod(mulmod(b, n + 1 + k, m), inv[n + 1 - k], m);
            }
            out[k] = mulmod((u64)(acc % m), central[k], m);
        }
        res = to_list(out, p - 1);
    }
    PyMem_Free(inv);
    return res;
}

#define KERNEL(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef native_methods[] = {
    KERNEL(inverse_table, "inverse_table(p, m, n): inverses of 1..n mod m (slot 0 unused), n < p."),
    KERNEL(franel_table, "franel_table(p, m, length): cubed-binomial row sums mod m by recurrence."),
    KERNEL(central_binom_table, "central_binom_table(p, m, length): binom(2k,k) mod m."),
    KERNEL(binom_shift_table, "binom_shift_table(p, m, rbar, length): binom(k+r,k) mod m."),
    KERNEL(fpoly_table, "fpoly_table(p, m, x, length): the polynomials f_l(x) mod m, l < length."),
    KERNEL(genfranel_table, "genfranel_table(p, m, r, length): sum_j binom(k,j)^r mod m."),
    KERNEL(weighted_cube_table, "weighted_cube_table(p, m, w, length): sum_k binom(n,k)^3 w^k mod m."),
    KERNEL(triangle_weighted_sums,
           "triangle_weighted_sums(p, m): binom(2k,k) sum_{n=k}^{p-1} (2n+1) binom(n+k,2k) mod m."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "franelcheck.kernels._native",
    .m_doc = "Compiled twins of the kernels in franelcheck.kernels.pure.",
    .m_size = 0,
    .m_methods = native_methods,
};

PyMODINIT_FUNC PyInit__native(void) { return PyModule_Create(&native_module); }
