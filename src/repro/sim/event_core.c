/*
 * Native event core of the vectorized simulation kernel.
 *
 * Two halves over flat arrays, neither touching a Python object.  The
 * pre-draw (draw_times, draw_messages) draws a run's arrival times,
 * destinations and concentrator peers from flat PCG64 states through
 * numpy's own distribution code (libnpyrandom.a), so every value equals
 * what numpy.random.Generator draws from the same state.  The loop
 * (core_run) runs the wormhole message life cycle over those messages and
 * the system's CSR route tables, and returns the deliveries and the
 * per-channel accounting.  repro/sim/native.py builds this file with
 * "cc -O2 -ffp-contract=off" (no fast-math: every float operation must
 * round exactly as the Python specification's does), links numpy's
 * libnpyrandom.a and calls it through ctypes; repro/sim/vector.py
 * documents the event order the loop replays.
 *
 * An event is (time, seq, payload) with payload = (ident << 3) | kind,
 * and events run in (time, seq) order, seq counting pushes.  They sit in
 * two binary heaps: one pending arrival per live source, and every other
 * event.  Each step runs the earlier of the two roots, which, seq being
 * unique, is the event one heap of them all would pop.  The event being
 * run stays at its root until the handler's first push to the same heap
 * takes its place (one sift-down instead of a pop and a push); a handler
 * that pushes nothing there has its event popped before the next step.
 */

#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>

#include "numpy/random/bitgen.h"

enum { EV_ARRIVAL, EV_HEADER, EV_TAIL, EV_GUARD, EV_GRANT, EV_DONE, EV_STOP };

enum {
    CORE_OK = 0,
    CORE_NO_MEMORY = 1,
    CORE_CURSOR_OVERRUN = 2,
    CORE_DELIVERY_OVERRUN = 3,
    CORE_JOURNEY_OVERRUN = 4,
    CORE_HEAP_DRAINED = 5,
    DRAW_EMPTY_DESTINATION = 6,
    DRAW_EMPTY_PEER = 7,
    DRAW_OUTSIDE_SYSTEM = 8
};

typedef struct {
    double time;
    int64_t seq;
    int64_t payload;
} event;

typedef struct {
    event *items;
    int64_t size;
    int64_t capacity;
} heap;

static int before(const event *a, const event *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

static int heap_push(heap *h, event fresh)
{
    if (h->size == h->capacity) {
        int64_t capacity = 2 * h->capacity;
        event *items = realloc(h->items, (size_t)capacity * sizeof(event));
        if (items == NULL)
            return CORE_NO_MEMORY;
        h->items = items;
        h->capacity = capacity;
    }
    event *items = h->items;
    int64_t at = h->size++;
    while (at > 0) {
        int64_t parent = (at - 1) / 2;
        if (!before(&fresh, &items[parent]))
            break;
        items[at] = items[parent];
        at = parent;
    }
    items[at] = fresh;
    return CORE_OK;
}

/* Put fresh in the root's place and sift it down: a pop and a push in one. */
static void heap_replace(heap *h, event fresh)
{
    event *items = h->items;
    int64_t size = h->size, at = 0;
    for (;;) {
        int64_t child = 2 * at + 1;
        if (child >= size)
            break;
        if (child + 1 < size && before(&items[child + 1], &items[child]))
            child++;
        if (!before(&items[child], &fresh))
            break;
        items[at] = items[child];
        at = child;
    }
    items[at] = fresh;
}

static void heap_pop(heap *h)
{
    if (--h->size > 0)
        heap_replace(h, h->items[h->size]);
}

/* Transfer rows: one per message in flight, recycled through a stack. */
typedef struct {
    int32_t *slots; /* capacity x stride journey slot ids */
    int32_t *length, *pos, *cluster, *next_waiting;
    double *tail, *created, *injected;
    uint8_t *measured, *external;
    int32_t *free_rows;
    int64_t count, capacity, free_count, stride;
} rows;

#define GROW(field, type)                                                          \
    do {                                                                           \
        type *grown = realloc(r->field, (size_t)capacity * sizeof(type) * (width)); \
        if (grown == NULL)                                                         \
            return CORE_NO_MEMORY;                                                 \
        r->field = grown;                                                          \
    } while (0)

static int rows_grow(rows *r)
{
    int64_t capacity = r->capacity ? 2 * r->capacity : 256;
    int64_t width = r->stride;
    GROW(slots, int32_t);
    width = 1;
    GROW(length, int32_t);
    GROW(pos, int32_t);
    GROW(cluster, int32_t);
    GROW(next_waiting, int32_t);
    GROW(tail, double);
    GROW(created, double);
    GROW(injected, double);
    GROW(measured, uint8_t);
    GROW(external, uint8_t);
    GROW(free_rows, int32_t);
    r->capacity = capacity;
    return CORE_OK;
}

static void rows_free(rows *r)
{
    free(r->slots);
    free(r->length);
    free(r->pos);
    free(r->cluster);
    free(r->next_waiting);
    free(r->tail);
    free(r->created);
    free(r->injected);
    free(r->measured);
    free(r->external);
    free(r->free_rows);
}

/* Append route q's ids, shifted by shift, to a journey under construction. */
static int append_route(int32_t *journey, int32_t *length, int64_t stride,
                        const int32_t *offsets, const int32_t *ids, int64_t q,
                        int64_t shift)
{
    int32_t start = offsets[q], end = offsets[q + 1];
    if (*length + (int64_t)(end - start) > stride)
        return CORE_JOURNEY_OVERRUN;
    for (int32_t i = start; i < end; i++)
        journey[(*length)++] = (int32_t)(ids[i] + shift);
    return CORE_OK;
}

static int append_slot(int32_t *journey, int32_t *length, int64_t stride, int64_t slot)
{
    if (*length >= stride)
        return CORE_JOURNEY_OVERRUN;
    journey[(*length)++] = (int32_t)slot;
    return CORE_OK;
}

/* Queue an event on the shared heap.  While the event being handled is
 * the shared root, the handler's first push takes its place. */
#define PUSH(t, p)                                                    \
    do {                                                              \
        event pushed = {(t), seq, (p)};                               \
        if (pending == &shared) {                                     \
            heap_replace(&shared, pushed);                            \
            pending = NULL;                                           \
        } else if ((status = heap_push(&shared, pushed)) != CORE_OK) { \
            goto done;                                                \
        }                                                             \
        seq++;                                                        \
    } while (0)

int core_run(
    /* system */
    int64_t num_clusters, const int64_t *cluster_nodes, int64_t total_slots,
    const double *header_times, int64_t concentrator_base, int64_t dispatcher_base,
    /* routes (see repro.routing.compile.FlatRoutes) */
    const int32_t *route_offsets, const int32_t *route_ids, const uint8_t *has_switch,
    const int64_t *intra, const int64_t *ascend, const int64_t *descend,
    const int64_t *icn1_shift, const int64_t *ecn1_shift, int64_t icn2,
    int64_t icn2_shift, int64_t stride,
    /* messages (see repro.workloads.batch.PreDrawn) */
    int64_t num_sources, const int64_t *source_clusters, const int64_t *source_nodes,
    const int64_t *offsets, const double *times, const int64_t *dest_clusters,
    const int64_t *dest_nodes, const int64_t *exit_peers, const int64_t *entry_peers,
    /* run */
    int64_t total_messages, int64_t warmup, int64_t measured_messages, double max_time,
    int64_t tail_flits, double t_cn, double max_header, int64_t elide,
    /* outputs */
    int64_t *consumed, double *busy_time, int64_t *total_grants, int32_t *touch_order,
    int32_t *delivered_cluster, uint8_t *delivered_external, double *delivered_created,
    double *delivered_injected, double *delivered_at, double *clock, int64_t *counts)
{
    int status = CORE_OK;
    int64_t measured_end = warmup + measured_messages;
    int64_t seq = 0, generated = 0, delivered = 0, touched_count = 0;
    int done_fired = 0;
    double time = 0.0;
    /* One pending arrival per live source, and every other event. */
    heap arrivals = {NULL, 0, num_sources + 1}, shared = {NULL, 0, 256};
    heap *pending = NULL; /* the heap whose root is the event being handled */
    rows r = {0};
    r.stride = stride;
    int32_t *holder = malloc((size_t)total_slots * sizeof(int32_t));
    int32_t *queue_head = malloc((size_t)total_slots * sizeof(int32_t));
    int32_t *queue_tail = malloc((size_t)total_slots * sizeof(int32_t));
    double *granted_at = malloc((size_t)total_slots * sizeof(double));
    uint8_t *touched = calloc((size_t)total_slots, 1);
    arrivals.items = malloc((size_t)arrivals.capacity * sizeof(event));
    shared.items = malloc((size_t)shared.capacity * sizeof(event));
    if (!holder || !queue_head || !queue_tail || !granted_at || !touched || !arrivals.items
        || !shared.items) {
        status = CORE_NO_MEMORY;
        goto done;
    }
    if ((status = rows_grow(&r)) != CORE_OK)
        goto done;
    for (int64_t slot = 0; slot < total_slots; slot++) {
        holder[slot] = queue_head[slot] = queue_tail[slot] = -1;
        granted_at[slot] = busy_time[slot] = 0.0;
        total_grants[slot] = 0;
    }

    /* The guard first, then every source's first arrival, in source order. */
    PUSH(max_time, EV_GUARD);
    for (int64_t source = 0; source < num_sources; source++) {
        consumed[source] = 0;
        event first = {times[offsets[source] + source], seq++, (source << 3) | EV_ARRIVAL};
        if ((status = heap_push(&arrivals, first)) != CORE_OK)
            goto done;
    }

    /* The guard stays queued until it pops, and its pop queues the stop.
     * Each step handles the earlier of the two roots (see the top). */
    for (;;) {
        if (pending != NULL) /* the last handler pushed nothing in its place */
            heap_pop(pending);
        if (arrivals.size > 0 && (shared.size == 0 || before(arrivals.items, shared.items))) {
            pending = &arrivals;
        } else if (shared.size > 0) {
            pending = &shared;
        } else {
            pending = NULL;
            status = CORE_HEAP_DRAINED;
            goto done;
        }
        event ev = pending->items[0];
        time = ev.time;
        int kind = (int)(ev.payload & 7);
        int64_t ident = ev.payload >> 3;
        if (kind == EV_HEADER) {
            int32_t position = r.pos[ident] + 1;
            if (position < r.length[ident]) {
                r.pos[ident] = position;
                int32_t slot = r.slots[ident * stride + position];
                if (holder[slot] < 0) {
                    holder[slot] = (int32_t)ident;
                    granted_at[slot] = time;
                    total_grants[slot]++;
                    /* Past position 0: no injection stamp to take. */
                    if (elide)
                        PUSH(time + header_times[slot], ev.payload);
                    else
                        PUSH(time, (ident << 3) | EV_GRANT);
                } else {
                    r.next_waiting[ident] = -1;
                    if (queue_tail[slot] < 0)
                        queue_head[slot] = (int32_t)ident;
                    else
                        r.next_waiting[queue_tail[slot]] = (int32_t)ident;
                    queue_tail[slot] = (int32_t)ident;
                }
                continue;
            }
            double tail = r.tail[ident];
            if (tail > 0.0) {
                PUSH(time + tail, (ident << 3) | EV_TAIL);
                continue;
            }
            kind = EV_TAIL; /* delivered with no body: fall through */
        }
        if (kind == EV_TAIL) {
            if (r.measured[ident]) {
                if (delivered >= measured_messages) {
                    status = CORE_DELIVERY_OVERRUN;
                    goto done;
                }
                delivered_cluster[delivered] = r.cluster[ident];
                delivered_external[delivered] = r.external[ident];
                delivered_created[delivered] = r.created[ident];
                delivered_injected[delivered] = r.injected[ident];
                delivered_at[delivered] = time;
                delivered++;
                if (delivered >= measured_messages && !done_fired) {
                    done_fired = 1;
                    PUSH(time, EV_DONE);
                }
            }
            /* Release in acquisition order, waking each slot's FIFO head. */
            const int32_t *journey = r.slots + ident * stride;
            for (int32_t i = 0; i < r.length[ident]; i++) {
                int32_t slot = journey[i];
                busy_time[slot] += time - granted_at[slot];
                int32_t successor = queue_head[slot];
                if (successor >= 0) {
                    queue_head[slot] = r.next_waiting[successor];
                    if (queue_head[slot] < 0)
                        queue_tail[slot] = -1;
                    holder[slot] = successor;
                    granted_at[slot] = time;
                    total_grants[slot]++;
                    if (elide) {
                        if (r.pos[successor] == 0)
                            r.injected[successor] = time;
                        PUSH(time + header_times[slot], ((int64_t)successor << 3) | EV_HEADER);
                    } else {
                        PUSH(time, ((int64_t)successor << 3) | EV_GRANT);
                    }
                } else {
                    holder[slot] = -1;
                }
            }
            r.free_rows[r.free_count++] = (int32_t)ident;
        } else if (kind == EV_ARRIVAL) {
            if (generated >= total_messages)
                continue; /* the source retires without drawing; its arrival pops */
            int64_t index = generated++;
            int64_t cursor = consumed[ident];
            int64_t message = offsets[ident] + cursor;
            if (message >= offsets[ident + 1]) {
                status = CORE_CURSOR_OVERRUN;
                goto done;
            }
            int64_t row;
            if (r.free_count > 0) {
                row = r.free_rows[--r.free_count];
            } else {
                if (r.count == r.capacity && (status = rows_grow(&r)) != CORE_OK)
                    goto done;
                row = r.count++;
            }
            int32_t *journey = r.slots + row * stride;
            int32_t length = 0;
            int64_t cluster = source_clusters[ident];
            int64_t node = source_nodes[ident];
            int64_t dest_cluster = dest_clusters[message];
            int64_t dest_node = dest_nodes[message];
            if (dest_cluster == cluster) {
                int64_t q = intra[cluster] + node * cluster_nodes[cluster] + dest_node;
                status = append_route(journey, &length, stride, route_offsets, route_ids, q,
                                      icn1_shift[cluster]);
                r.tail[row] = (double)tail_flits * (has_switch[q] ? max_header : t_cn);
                r.external[row] = 0;
            } else {
                int64_t q = ascend[cluster] + node * cluster_nodes[cluster] + exit_peers[message];
                int64_t crossing = icn2 + cluster * num_clusters + dest_cluster;
                int64_t descent = descend[dest_cluster]
                                  + entry_peers[message] * cluster_nodes[dest_cluster] + dest_node;
                status = append_route(journey, &length, stride, route_offsets, route_ids, q,
                                      ecn1_shift[cluster]);
                if (status == CORE_OK)
                    status = append_slot(journey, &length, stride, concentrator_base + cluster);
                if (status == CORE_OK)
                    status = append_route(journey, &length, stride, route_offsets, route_ids,
                                          crossing, icn2_shift);
                if (status == CORE_OK)
                    status = append_slot(journey, &length, stride, dispatcher_base + dest_cluster);
                if (status == CORE_OK)
                    status = append_route(journey, &length, stride, route_offsets, route_ids,
                                          descent, ecn1_shift[dest_cluster]);
                r.tail[row] = (double)tail_flits * max_header;
                r.external[row] = 1;
            }
            if (status != CORE_OK || length == 0) {
                status = CORE_JOURNEY_OVERRUN;
                goto done;
            }
            for (int32_t i = 0; i < length; i++) {
                int32_t slot = journey[i];
                if (!touched[slot]) {
                    touched[slot] = 1;
                    touch_order[touched_count++] = slot;
                }
            }
            r.length[row] = length;
            r.pos[row] = 0;
            r.created[row] = time;
            r.measured[row] = warmup <= index && index < measured_end;
            r.cluster[row] = (int32_t)cluster;
            int32_t slot = journey[0];
            if (holder[slot] < 0) {
                holder[slot] = (int32_t)row;
                granted_at[slot] = time;
                total_grants[slot]++;
                if (elide) {
                    /* A fresh transfer acquires at position 0: the elided
                     * grant's injection stamp lands here. */
                    r.injected[row] = time;
                    PUSH(time + header_times[slot], (row << 3) | EV_HEADER);
                } else {
                    PUSH(time, (row << 3) | EV_GRANT);
                }
            } else {
                r.next_waiting[row] = -1;
                if (queue_tail[slot] < 0)
                    queue_head[slot] = (int32_t)row;
                else
                    r.next_waiting[queue_tail[slot]] = (int32_t)row;
                queue_tail[slot] = (int32_t)row;
            }
            cursor++;
            consumed[ident] = cursor;
            if (offsets[ident] + cursor > offsets[ident + 1]) {
                status = CORE_CURSOR_OVERRUN;
                goto done;
            }
            /* The source's next arrival takes this one's place. */
            event next = {times[offsets[ident] + ident + cursor], seq++, ev.payload};
            heap_replace(&arrivals, next);
            pending = NULL;
        } else if (kind == EV_GRANT) {
            int32_t position = r.pos[ident];
            if (position == 0) /* the wait for the injection slot is the source-queue delay */
                r.injected[ident] = time;
            int32_t slot = r.slots[ident * stride + position];
            PUSH(time + header_times[slot], (ident << 3) | EV_HEADER);
        } else if (kind == EV_STOP) {
            break; /* nothing queued behind the stop may run */
        } else { /* EV_DONE or EV_GUARD: one hop to the stop */
            PUSH(time, EV_STOP);
        }
    }

done:
    clock[0] = time;
    /* Every push took one seq; every event no longer queued ran, the
     * pending root included. */
    counts[0] = seq - (arrivals.size + shared.size - (pending != NULL));
    counts[1] = delivered;
    counts[2] = touched_count;
    counts[3] = done_fired;
    free(holder);
    free(queue_head);
    free(queue_tail);
    free(granted_at);
    free(touched);
    free(arrivals.items);
    free(shared.items);
    rows_free(&r);
    return status;
}

/* ------------------------------------------------------------------ pre-draw
 *
 * numpy's PCG64: a 128-bit LCG with the XSL-RR output function, plus the
 * spare half word next_uint32 keeps between calls.  A stream is stored as
 * four words (state high, state low, increment high, increment low); its
 * half-word buffer starts empty, as in a freshly seeded or restored
 * numpy.random.PCG64.
 */

typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64;

#define PCG64_MULTIPLIER (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

static void pcg64_step(pcg64 *rng)
{
    rng->state = rng->state * PCG64_MULTIPLIER + rng->inc;
}

static uint64_t pcg64_next64(void *opaque)
{
    pcg64 *rng = opaque;
    pcg64_step(rng);
    uint64_t folded = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return (folded >> rot) | (folded << ((-rot) & 63));
}

static uint32_t pcg64_next32(void *opaque)
{
    pcg64 *rng = opaque;
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return rng->uinteger;
    }
    uint64_t next = pcg64_next64(rng);
    rng->has_uint32 = 1;
    rng->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *opaque)
{
    return (double)(pcg64_next64(opaque) >> 11) * (1.0 / 9007199254740992.0);
}

static pcg64 pcg64_load(const uint64_t *words)
{
    pcg64 rng = {((u128)words[0] << 64) | words[1], ((u128)words[2] << 64) | words[3], 0, 0};
    return rng;
}

static void pcg64_store(const pcg64 *rng, uint64_t *words)
{
    words[0] = (uint64_t)(rng->state >> 64);
    words[1] = (uint64_t)rng->state;
    words[2] = (uint64_t)(rng->inc >> 64);
    words[3] = (uint64_t)rng->inc;
}

#define BITGEN(rng) {&(rng), pcg64_next64, pcg64_next32, pcg64_next_double, pcg64_next64}

/* numpy/random/distributions.h declares these but includes Python.h. */
extern double random_standard_uniform(bitgen_t *bitgen_state);
extern double random_exponential(bitgen_t *bitgen_state, double scale);
extern void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                                       intptr_t cnt, bool use_masked, uint64_t *out);

/*
 * numpy's SeedSequence: entropy words hash into a pool of four words,
 * every pool word is mixed with every other, and any entropy past the
 * pool is mixed into each pool word (SeedSequence.mix_entropy).
 */
static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ (result >> 16);
}

/*
 * Row i of entropy[1:] holds entropy[0] 32-bit words (one per uint64): the
 * array SeedSequence(seed) assembles from its seed.  states[i] becomes the
 * initial state of numpy.random.PCG64(SeedSequence(seed)): the pool,
 * SeedSequence.generate_state(4, uint64) (eight words paired little-endian)
 * and then numpy's pcg64_set_seed.
 */
void rng_seed(int64_t count, const uint64_t *entropy, uint64_t *states)
{
    int64_t width = (int64_t)entropy[0];
    for (int64_t i = 0; i < count; i++) {
        const uint64_t *row = entropy + 1 + i * width;
        uint32_t pool[4], hash_const = 0x43b0d7e5u;
        for (int j = 0; j < 4; j++)
            pool[j] = hashmix(j < width ? (uint32_t)row[j] : 0, &hash_const);
        for (int source = 0; source < 4; source++)
            for (int target = 0; target < 4; target++)
                if (source != target)
                    pool[target] = mix(pool[target], hashmix(pool[source], &hash_const));
        for (int64_t source = 4; source < width; source++)
            for (int target = 0; target < 4; target++)
                pool[target] = mix(pool[target], hashmix((uint32_t)row[source], &hash_const));
        uint64_t seed[4] = {0};
        hash_const = 0x8b51f9ddu;
        for (int j = 0; j < 8; j++) {
            uint32_t value = pool[j & 3] ^ hash_const;
            hash_const *= 0x58f38dedu;
            value *= hash_const;
            value ^= value >> 16;
            seed[j >> 1] |= (uint64_t)value << (32 * (j & 1));
        }
        pcg64 rng = {0, ((((u128)seed[2] << 64) | seed[3]) << 1) | 1, 0, 0};
        pcg64_step(&rng);
        rng.state += ((u128)seed[0] << 64) | seed[1];
        pcg64_step(&rng);
        pcg64_store(&rng, states + 4 * i);
    }
}

enum { ARRIVALS_POISSON, ARRIVALS_DETERMINISTIC };

/*
 * Row i of times continues start[i] by width arrival times of source
 * rows[i], each the previous one plus a gap: Generator.exponential(gap)
 * draws for Poisson arrivals, the constant gap for deterministic ones.
 * The source's stream advances in place.  Exponential draws never touch
 * the half-word buffer, so four words carry a stream between calls.
 */
void draw_times(int64_t count, const int64_t *rows, uint64_t *states, int64_t kind,
                double gap, int64_t width, const double *start, double *times)
{
    for (int64_t i = 0; i < count; i++) {
        double *out = times + i * width;
        double now = start[i];
        if (kind == ARRIVALS_DETERMINISTIC) {
            for (int64_t j = 0; j < width; j++)
                out[j] = now = now + gap;
            continue;
        }
        pcg64 rng = pcg64_load(states + 4 * rows[i]);
        bitgen_t bitgen = BITGEN(rng);
        for (int64_t j = 0; j < width; j++)
            out[j] = now = now + random_exponential(&bitgen, gap);
        pcg64_store(&rng, states + 4 * rows[i]);
    }
}

/* Generator.integers(0, high), or -1 for an empty range. */
static int64_t below(bitgen_t *bitgen, int64_t high)
{
    uint64_t draw;
    if (high < 1)
        return -1;
    random_bounded_uint64_fill(bitgen, 0, (uint64_t)(high - 1), 1, false, &draw);
    return (int64_t)draw;
}

/* A uniform index below high other than excluded: a draw below high - 1
 * that steps over it, or -1 for an empty range. */
static int64_t skipping(bitgen_t *bitgen, int64_t high, int64_t excluded)
{
    int64_t draw = below(bitgen, high - 1);
    return draw < 0 ? -1 : draw + (draw >= excluded);
}

enum { PATTERN_UNIFORM, PATTERN_HOTSPOT, PATTERN_LOCAL, PATTERN_PERMUTATION };

typedef struct {
    int64_t kind, hot_cluster, hot_node; /* hot_node -1: the whole hot cluster */
    double fraction;                     /* hot or local share */
    const int64_t *table;                /* permutation partners */
    const int64_t *cluster_nodes, *node_offsets;
    int64_t total;
} pattern;

/*
 * The global index of one message's destination from node `node` of
 * cluster `cluster`, or -1 for an empty range: the draws, in the same
 * order, of each pattern's sample_destination in repro/workloads/.
 */
static int64_t destination(bitgen_t *bitgen, const pattern *p, int64_t cluster, int64_t node)
{
    int64_t source = p->node_offsets[cluster] + node, draw;
    if (p->kind == PATTERN_HOTSPOT) {
        /* random() comes first, even for the hot node, which then falls
         * back to uniform. */
        if (random_standard_uniform(bitgen) < p->fraction
            && !(cluster == p->hot_cluster && node == p->hot_node)) {
            int64_t base = p->node_offsets[p->hot_cluster];
            int64_t size = p->cluster_nodes[p->hot_cluster];
            if (p->hot_node >= 0)
                return base + p->hot_node;
            draw = cluster == p->hot_cluster ? skipping(bitgen, size, node) : below(bitgen, size);
            return draw < 0 ? -1 : base + draw;
        }
    } else if (p->kind == PATTERN_LOCAL) {
        int64_t base = p->node_offsets[cluster], size = p->cluster_nodes[cluster];
        int go_local = random_standard_uniform(bitgen) < p->fraction;
        if ((go_local && size > 1) || p->total == size) {
            draw = skipping(bitgen, size, node);
            return draw < 0 ? -1 : base + draw;
        }
        /* uniform over the nodes outside the source cluster */
        draw = below(bitgen, p->total - size);
        return draw < 0 ? -1 : draw + (draw >= base ? size : 0);
    } else if (p->kind == PATTERN_PERMUTATION) {
        return p->table[source];
    }
    return skipping(bitgen, p->total, source);
}

/*
 * Every source's destinations, then, for each message leaving its
 * cluster, the exit peer in the source cluster and the entry peer in the
 * destination cluster (draw_peer in repro/sim/wormhole.py); intra-cluster
 * messages get -1 and draw no peer.  The sources are the system's nodes
 * in order, so source_clusters doubles as the node-to-cluster map.  The
 * block holds (arrivals, destinations, peers) states per source and is
 * only read.
 */
int draw_messages(int64_t num_clusters, const int64_t *cluster_nodes,
                  const int64_t *node_offsets, int64_t num_sources,
                  const int64_t *source_clusters, const int64_t *source_nodes,
                  const int64_t *offsets, const uint64_t *block, int64_t kind, double fraction,
                  int64_t hot_cluster, int64_t hot_node, const int64_t *table,
                  int64_t *dest_clusters, int64_t *dest_nodes, int64_t *exit_peers,
                  int64_t *entry_peers)
{
    pattern p = {kind,  hot_cluster,   hot_node,     fraction,
                 table, cluster_nodes, node_offsets, node_offsets[num_clusters]};
    for (int64_t source = 0; source < num_sources; source++) {
        pcg64 dest_rng = pcg64_load(block + 12 * source + 4);
        pcg64 peer_rng = pcg64_load(block + 12 * source + 8);
        bitgen_t dests = BITGEN(dest_rng), peers = BITGEN(peer_rng);
        int64_t cluster = source_clusters[source], node = source_nodes[source];
        for (int64_t message = offsets[source]; message < offsets[source + 1]; message++) {
            int64_t target = destination(&dests, &p, cluster, node);
            if (target < 0)
                return DRAW_EMPTY_DESTINATION;
            if (target >= p.total)
                return DRAW_OUTSIDE_SYSTEM;
            int64_t dest_cluster = source_clusters[target];
            int64_t dest_node = target - node_offsets[dest_cluster];
            int64_t exit_peer = -1, entry_peer = -1;
            if (dest_cluster != cluster) {
                exit_peer = skipping(&peers, cluster_nodes[cluster], node);
                if (exit_peer < 0)
                    return DRAW_EMPTY_PEER;
                entry_peer = skipping(&peers, cluster_nodes[dest_cluster], dest_node);
                if (entry_peer < 0)
                    return DRAW_EMPTY_PEER;
            }
            dest_clusters[message] = dest_cluster;
            dest_nodes[message] = dest_node;
            exit_peers[message] = exit_peer;
            entry_peers[message] = entry_peer;
        }
    }
    return CORE_OK;
}
