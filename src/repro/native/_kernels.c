/* Eventor hot-stage kernels: compiled counterparts of the numpy hot path.
 *
 * The contract of every kernel here is *bit-compatibility* with the numpy
 * reference implementation (see docs/NATIVE.md for the ABI and the one
 * declared exception):
 *
 *   - eventor_phi_batch        == repro.geometry.homography
 *                                 .proportional_coefficients_batch (bit-exact:
 *                                 same elementwise operation order, no FMA)
 *   - eventor_canonical_batch  ~= apply_homography_with_scale_batch
 *                                 (epsilon-bounded: numpy routes the matmul
 *                                 through BLAS, whose accumulation order
 *                                 differs from the C loop)
 *   - eventor_vote_nearest_batch
 *                              == proportional map + nearest_vote_indices
 *                                 + integer scatter (bit-exact)
 *   - eventor_vote_bilinear_batch_{f64,i64}
 *                              == proportional map + bilinear_vote_terms
 *                                 + in-order scatter (bit-exact; the i64
 *                                 variant truncates each corner weight
 *                                 toward zero per addition, matching
 *                                 np.add.at into an int64 buffer)
 *
 * Bit-exactness relies on compiling WITHOUT floating-point contraction:
 * build with -ffp-contract=off (a fused multiply-add would round once
 * where numpy rounds twice).  No -ffast-math, ever.
 *
 * The library is pure C99 + libm with a flat extern "C" ABI (no Python.h),
 * so it can be loaded through ctypes, cffi, or linked from any other
 * provider (e.g. a future Rust crate re-exporting the same symbols).
 * All arrays are dense row-major (C-contiguous) float64 / int64 / uint8.
 */

#include <math.h>
#include <stdint.h>

#if defined(_MSC_VER)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

typedef long long ll;

/* Per-frame proportional coefficient tables (paper sub-task "Compute
 * Proportional Back-Projection Parameters").
 *
 *   centers: (B, 3)  event camera centres in the virtual frame
 *   depths:  (nz,)   DSI depth planes
 *   phi:     (B, nz, 3) output rows (alpha_i, beta_i, gamma_i)
 *
 * Returns 1 when any |denom| < 1e-12 (degenerate geometry: camera centre
 * on the canonical plane) -- the caller raises, output is unspecified.
 * NaN inputs are NOT flagged (NaN < 1e-12 is false), matching numpy.
 */
EXPORT int eventor_phi_batch(
    const double *centers, const double *depths,
    ll B, ll nz,
    double z0, double fx, double fy, double cx, double cy,
    double *phi)
{
    int degenerate = 0;
    for (ll b = 0; b < B; ++b) {
        const double c0 = centers[3 * b];
        const double c1 = centers[3 * b + 1];
        const double c2 = centers[3 * b + 2];
        double *out = phi + b * nz * 3;
        for (ll z = 0; z < nz; ++z) {
            const double d = depths[z];
            const double denom = d * (z0 - c2);
            if (fabs(denom) < 1e-12)
                degenerate = 1;
            const double alpha = z0 * (d - c2) / denom;
            const double beta_n = c0 * (z0 - d) / denom;
            const double gamma_n = c1 * (z0 - d) / denom;
            out[3 * z] = alpha;
            out[3 * z + 1] = fx * beta_n + cx * (1.0 - alpha);
            out[3 * z + 2] = fy * gamma_n + cy * (1.0 - alpha);
        }
    }
    return degenerate;
}

/* Batched canonical projection P(Z0): homogeneous transform + perspective
 * division.  Division by a zero scale produces IEEE inf/nan, exactly like
 * the numpy path under errstate(ignore).
 *
 *   H:  (B, 3, 3) per-frame canonical homographies
 *   xy: (B, N, 2) event pixels
 *   uv: (B, N, 2) output canonical pixels
 *   w:  (B, N)    output homogeneous scales (<= 0 marks a behind-plane miss)
 */
EXPORT void eventor_canonical_batch(
    const double *H, const double *xy,
    ll B, ll N,
    double *uv, double *w)
{
    for (ll b = 0; b < B; ++b) {
        const double *h = H + 9 * b;
        const double *p = xy + b * N * 2;
        double *o = uv + b * N * 2;
        double *ow = w + b * N;
        for (ll i = 0; i < N; ++i) {
            const double x = p[2 * i];
            const double y = p[2 * i + 1];
            const double h0 = x * h[0] + y * h[1] + h[2];
            const double h1 = x * h[3] + y * h[4] + h[5];
            const double h2 = x * h[6] + y * h[7] + h[8];
            o[2 * i] = h0 / h2;
            o[2 * i + 1] = h1 / h2;
            ow[i] = h2;
        }
    }
}

/* Load-time ISA dispatch for the vectorisable kernels.  On x86-64 ELF
 * targets the compiler emits an AVX-512 (x86-64-v4), an AVX2 (x86-64-v3)
 * and a baseline clone of each marked function, and the dynamic loader
 * binds the widest one the CPU supports.  The clones need GCC 12 or later
 * (the first with a dispatcher for the x86-64-vN levels) and glibc (the
 * dispatcher is an ifunc); everywhere else -- clang, musl, macOS,
 * Windows, ARM -- the macro is empty and the same C compiles as one
 * function for the build's -march.  Every clone runs the same IEEE
 * operations in the same order (and -ffp-contract=off forbids FMA in all
 * of them), so the choice of clone never changes a result bit.  Defining
 * EVENTOR_CLONES empty at compile time (-DEVENTOR_CLONES=) pins one ISA
 * level, which is how the tests check each clone. */
#ifndef EVENTOR_CLONES
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) \
    && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define EVENTOR_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#endif
#endif
#ifndef EVENTOR_CLONES
#define EVENTOR_CLONES
#endif

/* Events per index/scatter chunk of the nearest kernel (a 4 KiB stack
 * buffer of int32 flat indices). */
#define NEAREST_CHUNK 1024

/* Fused proportional back-projection + nearest voting over a frame batch.
 *
 * Per (event, plane) pair: u = u0*alpha + beta, v = v0*alpha + gamma,
 * round half-up (floor(x + 0.5)), bounds-check, count.  Each (plane,
 * frame, chunk of <= NEAREST_CHUNK events) runs in two passes:
 *
 *   1. index pass (branch-free, so it vectorises): the bounds test runs
 *      on the doubles, combined with the valid flag by bitwise &, and a
 *      row that misses has its coordinates replaced by 0.0 before the
 *      int cast -- so a NaN/inf coordinate (which numpy masks via its
 *      finiteness pass) fails the comparison and is never cast.  Writes
 *      the int32 flat index (int)tv*w + (int)tu, or -1 for no vote.
 *   2. scatter pass: increments the plane's count window at every
 *      index >= 0 and counts the votes.
 *
 * Rows with valid == 0 are projection misses and cast no votes.  Integer
 * counts are order-independent, so the plane-major loop (cache-resident
 * count window) is bit-exact with the reference's row-major scatter.
 *
 *   phi:    (B, nz, 3)
 *   uv0:    (B, N, 2) canonical pixels (miss rows zeroed, as produced)
 *   valid:  (B, N) uint8 projection-miss mask
 *   counts: (nz*h*w,) int32, accumulated in place
 *
 * Precondition: h*w < 2^31, so a flat index within one plane fits int32
 * (the Python binding checks it).  int32 counts halve the scatter
 * footprint; a cell's count is bounded by the events of one reference
 * segment, far below 2^31, and the caller widens on materialization.
 * Returns the number of votes cast (in-bounds hits), matching the
 * reference vote accounting.
 */
EVENTOR_CLONES
EXPORT ll eventor_vote_nearest_batch(
    const double *phi, const double *uv0, const unsigned char *valid,
    ll B, ll N, ll nz, ll h, ll w,
    int32_t *counts)
{
    ll votes = 0;
    const double wD = (double)w;
    const double hD = (double)h;
    const int32_t wi = (int32_t)w;
    int32_t idx[NEAREST_CHUNK];
    /* Plane-major over the whole batch: one plane's count window stays
     * cache-resident while every frame scatters into it (the batched
     * numpy voter walks planes for the same reason).  Counts are
     * integers, so the reordering cannot change the result. */
    for (ll z = 0; z < nz; ++z) {
        int32_t *cz = counts + z * h * w;
        for (ll b = 0; b < B; ++b) {
            const double *phib = phi + b * nz * 3;
            const double a = phib[3 * z];
            const double beta = phib[3 * z + 1];
            const double gamma = phib[3 * z + 2];
            for (ll i0 = 0; i0 < N; i0 += NEAREST_CHUNK) {
                const int n = (int)(N - i0 < NEAREST_CHUNK ? N - i0 : NEAREST_CHUNK);
                const double *p = uv0 + (b * N + i0) * 2;
                const unsigned char *vb = valid + b * N + i0;
                for (int i = 0; i < n; ++i) {
                    /* floor(x+0.5) >= 0 iff x+0.5 >= 0; floor(x+0.5) < w
                     * iff x+0.5 < w (w integral).  NaN fails every
                     * comparison. */
                    const double tu = p[2 * i] * a + beta + 0.5;
                    const double tv = p[2 * i + 1] * a + gamma + 0.5;
                    const int hit = (vb[i] != 0) & (tu >= 0.0) & (tu < wD)
                                    & (tv >= 0.0) & (tv < hD);
                    /* truncation == floor for non-negative values */
                    const int32_t ku = (int32_t)(hit ? tu : 0.0);
                    const int32_t kv = (int32_t)(hit ? tv : 0.0);
                    idx[i] = hit ? kv * wi + ku : -1;
                }
                for (int i = 0; i < n; ++i) {
                    const int32_t k = idx[i];
                    if (k >= 0) {
                        cz[k] += 1;
                        ++votes;
                    }
                }
            }
        }
    }
    return votes;
}

/* Shared bilinear corner machinery.  Exactly one of flat_f64 / flat_i64
 * is non-NULL and selects the accumulation mode.  Scratch buffers (all
 * (N*nz,), caller-provided so concurrent engines never share state):
 * su/sv hold floor(u)/floor(v), sfu/sfv the fractional parts, voted the
 * per-(event, plane) did-any-corner-land flags.
 *
 * Corner order is the reference's fixed (00, 10, 01, 11): all votes of a
 * corner scatter before the next corner, rows in (event-major, plane)
 * order within a corner, frames sequentially -- reproducing the float
 * accumulation order of numpy's concatenated scatter bit for bit.
 */
static ll bilinear_core(
    const double *phi, const double *uv0, const unsigned char *valid,
    ll B, ll N, ll nz, ll h, ll w,
    double *flat_f64, ll *flat_i64,
    double *su, double *sv, double *sfu, double *sfv, unsigned char *voted)
{
    const double wD = (double)w;
    const double hD = (double)h;
    static const double DU[4] = {0.0, 1.0, 0.0, 1.0};
    static const double DV[4] = {0.0, 0.0, 1.0, 1.0};
    ll n_points = 0;
    for (ll b = 0; b < B; ++b) {
        const double *uvb = uv0 + b * N * 2;
        const unsigned char *vb = valid + b * N;
        const double *phib = phi + b * nz * 3;
        /* stage 1: proportional map + floor/fraction decomposition */
        for (ll i = 0; i < N; ++i) {
            const double x0 = uvb[2 * i];
            const double y0 = uvb[2 * i + 1];
            const int ok = vb[i] != 0;
            for (ll z = 0; z < nz; ++z) {
                const ll k = i * nz + z;
                voted[k] = 0;
                if (!ok) {
                    /* miss row: NaN fails every corner test below */
                    su[k] = NAN;
                    sv[k] = NAN;
                    sfu[k] = NAN;
                    sfv[k] = NAN;
                    continue;
                }
                const double u = x0 * phib[3 * z] + phib[3 * z + 1];
                const double v = y0 * phib[3 * z] + phib[3 * z + 2];
                const double u0f = floor(u);
                const double v0f = floor(v);
                su[k] = u0f;
                sv[k] = v0f;
                sfu[k] = u - u0f;
                sfv[k] = v - v0f;
            }
        }
        /* stage 2: four corner passes in reference order */
        for (int c = 0; c < 4; ++c) {
            const double du = DU[c];
            const double dv = DV[c];
            for (ll k = 0; k < N * nz; ++k) {
                const double cu = su[k] + du;
                const double cv = sv[k] + dv;
                if (!(cu >= 0.0) || !(cu < wD) || !(cv >= 0.0) || !(cv < hD))
                    continue;
                const double fu = sfu[k];
                const double fv = sfv[k];
                double weight;
                switch (c) {
                case 0:
                    weight = (1.0 - fu) * (1.0 - fv);
                    break;
                case 1:
                    weight = fu * (1.0 - fv);
                    break;
                case 2:
                    weight = (1.0 - fu) * fv;
                    break;
                default:
                    weight = fu * fv;
                    break;
                }
                if (!(weight > 0.0))
                    continue;
                const ll z = k % nz;
                const ll idx = (z * h + (ll)cv) * w + (ll)cu;
                if (flat_f64)
                    flat_f64[idx] += weight;
                else
                    flat_i64[idx] += (ll)weight; /* per-add truncation */
                voted[k] = 1;
            }
        }
        for (ll k = 0; k < N * nz; ++k)
            n_points += voted[k];
    }
    return n_points;
}

/* Bilinear voting into a float64 DSI; returns the number of points that
 * cast a (full or partial) vote.  See bilinear_core for semantics. */
EXPORT ll eventor_vote_bilinear_batch_f64(
    const double *phi, const double *uv0, const unsigned char *valid,
    ll B, ll N, ll nz, ll h, ll w,
    double *flat,
    double *su, double *sv, double *sfu, double *sfv, unsigned char *voted)
{
    return bilinear_core(phi, uv0, valid, B, N, nz, h, w,
                         flat, (ll *)0, su, sv, sfu, sfv, voted);
}

/* Bilinear voting into an int64 DSI (integer-score policies): each
 * corner weight is truncated toward zero per addition, matching
 * np.add.at(int64_buffer, idx, float_weights). */
EXPORT ll eventor_vote_bilinear_batch_i64(
    const double *phi, const double *uv0, const unsigned char *valid,
    ll B, ll N, ll nz, ll h, ll w,
    ll *flat,
    double *su, double *sv, double *sfu, double *sfv, unsigned char *voted)
{
    return bilinear_core(phi, uv0, valid, B, N, nz, h, w,
                         (double *)0, flat, su, sv, sfu, sfv, voted);
}
