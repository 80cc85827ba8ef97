/*
 * Native event core of the vectorized simulation kernel.
 *
 * One run of the wormhole message life cycle over flat arrays: the run's
 * pre-drawn messages and the system's CSR route tables in, the deliveries
 * and per-channel accounting out.  repro/sim/native.py builds this file
 * with "cc -O2 -ffp-contract=off" (no fast-math: every float operation
 * must round exactly as the Python specification's does) and calls
 * core_run through ctypes; repro/sim/vector.py documents the event order
 * this loop replays.  The code touches no Python object.
 *
 * An event is (time, seq, payload) with payload = (ident << 3) | kind;
 * the heap pops in (time, seq) order and seq counts pushes.
 */

#include <stdint.h>
#include <stdlib.h>

enum { EV_ARRIVAL, EV_HEADER, EV_TAIL, EV_GUARD, EV_GRANT, EV_DONE, EV_STOP };

enum {
    CORE_OK = 0,
    CORE_NO_MEMORY = 1,
    CORE_CURSOR_OVERRUN = 2,
    CORE_DELIVERY_OVERRUN = 3,
    CORE_JOURNEY_OVERRUN = 4,
    CORE_HEAP_DRAINED = 5
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

static int heap_push(heap *h, double time, int64_t seq, int64_t payload)
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
    event fresh = {time, seq, payload};
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

static event heap_pop(heap *h)
{
    event *items = h->items;
    event top = items[0];
    event last = items[--h->size];
    int64_t size = h->size, at = 0;
    for (;;) {
        int64_t child = 2 * at + 1;
        if (child >= size)
            break;
        if (child + 1 < size && before(&items[child + 1], &items[child]))
            child++;
        if (!before(&items[child], &last))
            break;
        items[at] = items[child];
        at = child;
    }
    if (size > 0)
        items[at] = last;
    return top;
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

#define PUSH(t, p)                                        \
    do {                                                  \
        if ((status = heap_push(&h, (t), seq, (p))) != CORE_OK) \
            goto done;                                    \
        seq++;                                            \
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
    heap h = {NULL, 0, 0};
    rows r = {0};
    r.stride = stride;
    int32_t *holder = malloc((size_t)total_slots * sizeof(int32_t));
    int32_t *queue_head = malloc((size_t)total_slots * sizeof(int32_t));
    int32_t *queue_tail = malloc((size_t)total_slots * sizeof(int32_t));
    double *granted_at = malloc((size_t)total_slots * sizeof(double));
    uint8_t *touched = calloc((size_t)total_slots, 1);
    h.capacity = num_sources + 64;
    h.items = malloc((size_t)h.capacity * sizeof(event));
    if (!holder || !queue_head || !queue_tail || !granted_at || !touched || !h.items) {
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
        PUSH(times[offsets[source] + source], (source << 3) | EV_ARRIVAL);
    }

    /* The guard stays queued until it pops, and its pop queues the stop. */
    for (;;) {
        if (h.size == 0) {
            status = CORE_HEAP_DRAINED;
            goto done;
        }
        event ev = heap_pop(&h);
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
                continue; /* the source retires without drawing */
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
            PUSH(times[offsets[ident] + ident + cursor], ev.payload);
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
    counts[0] = seq - h.size; /* every push took one seq, every pop ran one event */
    counts[1] = delivered;
    counts[2] = touched_count;
    counts[3] = done_fired;
    free(holder);
    free(queue_head);
    free(queue_tail);
    free(granted_at);
    free(touched);
    free(h.items);
    rows_free(&r);
    return status;
}
