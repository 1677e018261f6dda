/* Compiled table kernels: moduli below 2**63, 128-bit intermediates.
 *
 * Mirror of pure.py: the same five functions (the P-recursive kernel, the
 * inverse table, the direct row sums of binomial powers, the triangle sums
 * and the reduction wdot), positional signatures and loops, and
 * bit-identical results.  The boundary in __init__.py validates and reduces
 * the parameters first and picks the recurrences; the checks here only keep
 * a direct call from dividing by zero, overflowing, or indexing out of
 * bounds.  Every integer argument or entry must be an int in [0, 2**64)
 * (else TypeError or OverflowError; wdot's table entries must be in [0, m),
 * else ValueError), and m < 2**63 keeps the sum in addmod below 2**64.
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

/* Read a sequence of ints, each in [0, m), into buf[0..n-1]. */
static int read_residues(PyObject *seq, u64 *buf, u64 m, const char *what)
{
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        buf[i] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (buf[i] == (u64)-1 && PyErr_Occurred())
            return -1;
        if (buf[i] >= m) {
            PyErr_Format(PyExc_ValueError, "%s entries must be below m=%llu, got %llu", what, m, buf[i]);
            return -1;
        }
    }
    return 0;
}

/* a(n) mod m for the coefficients c[0..count-1] of a, lowest power first. */
static u64 eval_poly(const u64 *c, Py_ssize_t count, u64 n, u64 m)
{
    u64 acc = 0;
    n %= m;
    while (count-- > 0)
        acc = addmod(mulmod(acc, n, m), c[count], m);
    return acc;
}

static PyObject *precursive_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[3], *cbuf = NULL, *out = NULL, *lead, *inv, acc_inv;
    Py_ssize_t *start = NULL, order, total = 0;
    PyObject *coeffs = NULL, *init = NULL, *res = NULL;
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError,
                            "precursive_table() takes 5 positional arguments (%zd given)", nargs);
    PyObject *const ints[3] = {args[0], args[1], args[4]};
    if (parse_args(ints, 3, 3, "precursive_table", a) < 0)
        return NULL;
    u64 p = a[0], m = a[1], len = a[2];
    if (len > p)
        return PyErr_Format(PyExc_ValueError, "length must be <= p, got %llu > %llu", len, p);
    if ((coeffs = PySequence_Fast(args[2], "coeffs must be a sequence")) == NULL)
        return NULL;
    if ((init = PySequence_Fast(args[3], "init must be a sequence")) == NULL)
        goto done;
    order = PySequence_Fast_GET_SIZE(coeffs) - 1;
    if (order < 1 || PySequence_Fast_GET_SIZE(init) != order) {
        PyErr_Format(PyExc_ValueError, "a recurrence needs order >= 1 and as many initial values, "
                     "got order %zd with %zd", order, PySequence_Fast_GET_SIZE(init));
        goto done;
    }
    /* the coefficients of a_0..a_order, one after another: a_i is cbuf[start[i]..start[i+1]) */
    if ((start = PyMem_Calloc((size_t)order + 2, sizeof(Py_ssize_t))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i <= order; i++) {
        PyObject *poly = PySequence_Fast_GET_ITEM(coeffs, i);
        if (!PyList_Check(poly) && !PyTuple_Check(poly)) {
            PyErr_SetString(PyExc_TypeError, "each a_i must be a list or tuple");
            goto done;
        }
        total += PySequence_Fast_GET_SIZE(poly);
        start[i + 1] = total;
    }
    if ((cbuf = alloc_tables(1, (u64)total + (u64)order)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i <= order; i++)
        if (read_residues(PySequence_Fast_GET_ITEM(coeffs, i), cbuf + start[i], m, "coeffs") < 0)
            goto done;
    u64 *u0 = cbuf + total;
    if (read_residues(init, u0, m, "init") < 0)
        goto done;
    if (len == 0) {
        res = PyList_New(0);
        goto done;
    }
    u64 steps = len > (u64)order ? len - (u64)order : 0;
    if ((out = alloc_tables(3, len)) == NULL)
        goto done;
    lead = out + len;
    inv = lead + len;
    for (u64 n = 0; n < len && n < (u64)order; n++)
        out[n] = u0[n];
    /* batch inversion of the leading values: prefix products, one inverse, a backward pass */
    const u64 *cj = cbuf + start[order];
    u64 acc = 1 % m;
    for (u64 n = 0; n < steps; n++) {
        lead[n] = eval_poly(cj, start[order + 1] - start[order], n, m);
        inv[n] = acc = mulmod(acc, lead[n], m);
    }
    if (steps > 0) {
        if (invmod(acc, m, &acc_inv) < 0)
            goto done;
        for (u64 n = steps - 1; n > 0; n--) {
            inv[n] = mulmod(acc_inv, inv[n - 1], m);
            acc_inv = mulmod(acc_inv, lead[n], m);
        }
        inv[0] = acc_inv;
    }
    for (u64 n = 0; n < steps; n++) {
        u64 s = 0;
        for (Py_ssize_t i = 0; i < order; i++)
            s = addmod(s, mulmod(eval_poly(cbuf + start[i], start[i + 1] - start[i], n, m), out[n + i], m), m);
        out[n + order] = mulmod(s ? m - s : 0, inv[n], m);
    }
    res = to_list(out, len);
done:
    PyMem_Free(out);
    PyMem_Free(cbuf);
    PyMem_Free(start);
    Py_XDECREF(init);
    Py_XDECREF(coeffs);
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

/* A wdot table entry: an int in [0, m).  Reading an int runs no Python
 * code, so the lists keep their length while wdot reads them. */
static int read_entry(PyObject *item, u64 m, u64 *out)
{
    if (!PyLong_Check(item)) {
        PyErr_Format(PyExc_TypeError, "wdot() entries must be ints, got %.200s", Py_TYPE(item)->tp_name);
        return -1;
    }
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(item, &overflow);
    if (overflow || v < 0 || (u64)v >= m) {
        PyErr_Format(PyExc_ValueError, "wdot() entries must be in [0, m) for m=%llu", m);
        return -1;
    }
    *out = (u64)v;
    return 0;
}

/* wdot(m, alternate, *tables): sum_k (+-1)^k prod_j tables_j[k] mod m over
 * lists of one length; the sign alternates from +1 at k = 0 when alternate
 * is true.  No tables is the empty sum, 0. */
static PyObject *wdot(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2)
        return PyErr_Format(PyExc_TypeError, "wdot() takes at least 2 positional arguments (%zd given)",
                            nargs);
    u64 m = PyLong_AsUnsignedLongLong(args[0]);
    if (m == (u64)-1 && PyErr_Occurred())
        return NULL;
    if (m == 0 || m >> 63)
        return PyErr_Format(PyExc_ValueError, "wdot() needs 1 <= m < 2**63, got m=%llu", m);
    int alternate = PyObject_IsTrue(args[1]);
    if (alternate < 0)
        return NULL;
    PyObject *const *tables = args + 2;
    Py_ssize_t count = nargs - 2, n = 0;
    for (Py_ssize_t j = 0; j < count; j++) {
        if (!PyList_Check(tables[j]))
            return PyErr_Format(PyExc_TypeError, "wdot() tables must be lists, got %.200s",
                                Py_TYPE(tables[j])->tp_name);
        Py_ssize_t len = PyList_GET_SIZE(tables[j]);
        if (j > 0 && len != n)
            return PyErr_Format(PyExc_ValueError, "wdot() tables must have one length, got %zd and %zd",
                                n, len);
        n = len;
    }
    if (n == 0)
        return PyLong_FromLong(0);
    u64 *prod = alloc_tables(1, (u64)n), acc = 0;
    if (prod == NULL)
        return NULL;
    /* one pass per table reads each list in order */
    for (Py_ssize_t j = 0; j < count; j++)
        for (Py_ssize_t k = 0; k < n; k++) {
            u64 v;
            if (read_entry(PyList_GET_ITEM(tables[j], k), m, &v) < 0) {
                PyMem_Free(prod);
                return NULL;
            }
            prod[k] = j == 0 ? v : mulmod(prod[k], v, m);
        }
    for (Py_ssize_t k = 0; k < n; k++)
        acc = addmod(acc, alternate && (k & 1) && prod[k] ? m - prod[k] : prod[k], m);
    PyMem_Free(prod);
    return PyLong_FromUnsignedLongLong(acc);
}

#define KERNEL(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef native_methods[] = {
    KERNEL(inverse_table, "inverse_table(p, m, n): [0] + inverses of 1..n mod m, n < p."),
    KERNEL(precursive_table,
           "precursive_table(p, m, coeffs, init, length): u(0..length-1) mod m of "
           "sum_i a_i(n) u(n+i) = 0, a_i given by coefficients mod m, lowest power first."),
    KERNEL(genfranel_table, "genfranel_table(p, m, r, length): sum_j binom(k,j)^r mod m."),
    KERNEL(triangle_weighted_sums,
           "triangle_weighted_sums(p, m): binom(2k,k) sum_{n=k}^{p-1} (2n+1) binom(n+k,2k) mod m."),
    KERNEL(wdot, "wdot(m, alternate, *tables): sum_k (+-1)^k prod_j tables_j[k] mod m over lists "
                 "of one length, the sign alternating when alternate is true."),
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
