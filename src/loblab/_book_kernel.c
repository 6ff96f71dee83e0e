/* Event kernel of the six-slot book (see lob_simulator).
 *
 * classify_event() is the only sampler: given the six signed slot counts and
 * one standard exponential and one standard uniform draw, it returns the
 * holding time, the slot that changes, its step, the interior region in
 * force and the flow.  Both event loops inline it and the checked step
 * apply_checked(); the exported classify() and apply_event() wrap them for
 * the tests.  The two loops draw through numpy's own bit generator, the
 * exponential first and then the uniform, so they consume a Generator's
 * stream exactly as Generator.standard_exponential() followed by
 * Generator.random() would.  Errors are returned as a status; the Python
 * wrapper raises them.
 *
 * run_to_renewal() steps the book from time 0 until a bracketing queue
 * empties and writes out only the book, the clock and the last event.
 * run_scaled_path() also writes each grid instant's region occupations.
 *
 * The fixed flow is picked by exact thresholds.  An early-exit search
 * subtracts the fixed rates from the scaled uniform u one by one, in
 * sampling order, and stops at the first flow whose rate exceeds the
 * remainder.  Rounded subtraction is monotone, so for each k the u that
 * pass the first k + 1 tests form an up-set [T_k, inf) of doubles.  Each
 * loop call finds the five T_k once, by bisection over the bit patterns of
 * the non-negative doubles with the same subtractions in the same order,
 * and the pick counts the T_k at or below u.  It is the flow that search
 * picks, rounding ties included; prefix sums of the rates are not (example
 * in classify_event).
 *
 * Bit identity with the Python reference rests on IEEE double arithmetic in
 * source order: build with -O2 -ffp-contract=off and never -ffast-math.
 */

#include <string.h>

#include "numpy/random/distributions.h"

#define KERNEL_OK 0
#define KERNEL_UNREACHABLE 1 /* interior pair in the quadrant w < 0 < x */
#define KERNEL_FAULT 2       /* the flow found the wrong sign at its slot */
#define KERNEL_HORIZON 3     /* no renewal before the time limit */
#define KERNEL_OUTSIDE 4     /* the slot lies outside the window */

typedef struct {
    double fixed[6];
    double fixed_total, tb, ts;
} rates_t;

typedef struct {
    double dt;
    int slot, delta, region, category;
} event_t;

/* signed count each flow may find at its target slot: market buys execute
 * against resting sells and market sells against resting buys, limit buys
 * must not land on sells nor limit sells on buys; cancellations are free */
static const int64_t ALLOWED_LO[8] = {
    INT64_MIN, 1, 0, 0, INT64_MIN, INT64_MIN, INT64_MIN, INT64_MIN};
static const int64_t ALLOWED_HI[8] = {
    -1, INT64_MAX, INT64_MAX, INT64_MAX, 0, 0, INT64_MAX, INT64_MAX};

static void set_event(event_t *ev, double dt, int slot, int delta, int region,
                      int category)
{
    ev->dt = dt;
    ev->slot = slot;
    ev->delta = delta;
    ev->region = region;
    ev->category = category;
}

/* whether the scaled uniform v passes the first k + 1 tests of the search */
static int passes(double v, const double *fixed, int k)
{
    for (int j = 0; j <= k; j++) {
        if (v < fixed[j])
            return 0;
        v -= fixed[j];
    }
    return 1;
}

/* T_k, the least non-negative double that passes the first k + 1 tests:
 * non-negative doubles order as their bit patterns, and +inf passes */
static void flow_thresholds(const rates_t *r, double *thr)
{
    for (int k = 0; k < 5; k++) {
        uint64_t lo = 0, hi = 0x7ff0000000000000u;
        double v = 0.0;
        if (!passes(v, r->fixed, k)) {
            while (hi - lo > 1) {
                const uint64_t mid = lo + (hi - lo) / 2;
                memcpy(&v, &mid, sizeof v);
                if (passes(v, r->fixed, k))
                    hi = mid;
                else
                    lo = mid;
            }
            memcpy(&v, &hi, sizeof v);
        }
        thr[k] = v;
    }
}

static inline __attribute__((always_inline)) int
classify_event(const int64_t *q, double e, double u, const rates_t *r,
               const double *thr, event_t *ev)
{
    const int64_t q0 = q[0], q1 = q[1], w = q[2], x = q[3], q4 = q[4], q5 = q[5];
    int region, bid, ask;
    int64_t buy_pool, sell_pool;

    /* region, bid and ask slots, and the stale pools: buys at slots
     * <= bid - 2, sells at slots >= ask + 2 */
    if (x > 0) {
        if (w < 0)
            return KERNEL_UNREACHABLE;
        region = 0, bid = 3, ask = 4; /* NE */
        buy_pool = (q0 > 0 ? q0 : 0) + (q1 > 0 ? q1 : 0);
        sell_pool = 0;
    } else if (w < 0) {
        region = 6, bid = 1, ask = 2; /* SW */
        buy_pool = 0;
        sell_pool = (q4 < 0 ? -q4 : 0) + (q5 < 0 ? -q5 : 0);
    } else if (x == 0) {
        if (w > 0) {
            region = 1, bid = 2, ask = 4; /* E */
            buy_pool = q0 > 0 ? q0 : 0;
        } else {
            region = 7, bid = 1, ask = 4; /* O */
            buy_pool = 0;
        }
        sell_pool = 0;
    } else {
        if (w == 0) {
            region = 5, bid = 1; /* S */
            buy_pool = 0;
        } else {
            int64_t s = w + x;
            region = s > 0 ? 2 : s == 0 ? 3 : 4; /* SE+, SE, SE- */
            bid = 2;
            buy_pool = q0 > 0 ? q0 : 0;
        }
        ask = 3;
        sell_pool = q5 < 0 ? -q5 : 0;
    }

    const double tb_pool = r->tb * (double)buy_pool;
    const double total = r->fixed_total + tb_pool + r->ts * (double)sell_pool;
    const double dt = e / total;
    u = u * total;

    if (u < r->fixed_total) {
        const int targets[6] = {ask, bid, ask - 1, ask - 2, bid + 1, bid + 2};
        const int deltas[6] = {1, -1, 1, 1, -1, -1};
        /* c counts the thresholds at or below u, which is the number of
         * leading flows whose sequential test fails.  Prefix sums of fixed
         * would be wrong at rounding ties: for ModelParams(a=1.2, b=1.7,
         * lambda0=2, theta_b=2, theta_s=0.5), u = 5.5317647058823525 equals
         * the sum of the first four fixed rates, so a prefix-sum test moves
         * on to flow 4; but after three subtractions v = 1.7199999999999993
         * lies below fixed[3] = 1.7199999999999998, so the flow is 3.  The
         * bisected T_3 lies above that u, so the count is 3 as well. */
        const int c = (u >= thr[0]) + (u >= thr[1]) + (u >= thr[2]) +
                      (u >= thr[3]) + (u >= thr[4]);
        set_event(ev, dt, targets[c], deltas[c], region, c);
        return KERNEL_OK;
    }

    /* cancellations: u / rate counts orders into the pool, which is walked
     * leftmost slot first */
    u -= r->fixed_total;
    if (u < tb_pool) {
        /* the pool is positive here, so slot 0 or slot 1 is stale */
        int slot = bid == 3 && q1 > 0 && (q0 <= 0 || u / r->tb >= (double)q0);
        set_event(ev, dt, slot, -1, region, 6);
    } else if (ask == 2 && q4 < 0 && (q5 >= 0 || (u - tb_pool) / r->ts < (double)-q4)) {
        set_event(ev, dt, 4, 1, region, 7);
    } else if (ask <= 3 && q5 < 0) {
        set_event(ev, dt, 5, 1, region, 7);
    } else {
        /* no stale sell: only rounding could carry u past the buy pool; the
         * slot is the first one beyond the sell pool */
        set_event(ev, dt, ask + 2, 1, region, 7);
    }
    return KERNEL_OK;
}

static inline __attribute__((always_inline)) int
apply_checked(int64_t *q, int slot, int delta, int category)
{
    if (slot < 0 || slot > 5)
        return KERNEL_OUTSIDE;
    const int64_t before = q[slot];
    if (before < ALLOWED_LO[category] || before > ALLOWED_HI[category])
        return KERNEL_FAULT;
    q[slot] = before + delta;
    return KERNEL_OK;
}

int classify(const int64_t *q, double e, double u, const rates_t *r, event_t *ev)
{
    double thr[5];
    flow_thresholds(r, thr);
    return classify_event(q, e, u, r, thr, ev);
}

int apply_event(int64_t *q, int slot, int delta, int category)
{
    return apply_checked(q, slot, delta, category);
}

static inline __attribute__((always_inline)) int
draw_and_classify(bitgen_t *bg, const int64_t *q, const rates_t *r,
                  const double *thr, event_t *ev)
{
    const double e = random_standard_exponential(bg);
    const double u = random_standard_uniform(bg);
    return classify_event(q, e, u, r, thr, ev);
}

/* Both loops step a local event and store it in *ev once, on exit, so that
 * after a refusal *ev holds the refused event. */

int run_to_renewal(bitgen_t *bg, int64_t *q, const rates_t *r, double limit,
                   double *clock, event_t *ev)
{
    double thr[5];
    flow_thresholds(r, thr);
    event_t e = {0.0, 0, 0, 0, 0};
    double c = 0.0;
    int status;
    for (;;) {
        if ((status = draw_and_classify(bg, q, r, thr, &e)))
            break;
        if (c + e.dt > limit) {
            status = KERNEL_HORIZON;
            break;
        }
        if ((status = apply_checked(q, e.slot, e.delta, e.category)))
            break;
        c += e.dt;
        if (q[1] == 0 || q[4] == 0)
            break;
    }
    *clock = c;
    *ev = e;
    return status;
}

int run_scaled_path(bitgen_t *bg, int64_t *q, const rates_t *r,
                    const double *grid, int64_t m, int64_t *counts,
                    double *occupations, event_t *ev)
{
    double thr[5];
    flow_thresholds(r, thr);
    event_t e = {0.0, 0, 0, 0, 0};
    double occ[8] = {0.0};
    double clock = 0.0;
    int64_t gi = 0;
    int status = KERNEL_OK;
    while (gi < m) {
        if ((status = draw_and_classify(bg, q, r, thr, &e)))
            break;
        const double t_next = clock + e.dt;
        /* each grid instant before the event sees the state after the
         * last event and the occupation accrued exactly up to it */
        for (; gi < m && grid[gi] < t_next; gi++) {
            for (int i = 0; i < 6; i++)
                counts[6 * gi + i] = q[i];
            for (int i = 0; i < 8; i++)
                occupations[8 * gi + i] = occ[i];
            occupations[8 * gi + e.region] += grid[gi] - clock;
        }
        if (gi == m)
            break;
        if (e.slot < 0 || e.slot > 5) {
            status = KERNEL_OUTSIDE;
            break;
        }
        q[e.slot] += e.delta;
        occ[e.region] += e.dt;
        clock = t_next;
    }
    *ev = e;
    return status;
}
