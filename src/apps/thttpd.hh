/**
 * @file
 * thttpd — a tiny/turbo HTTP server — and an ApacheBench-style load
 * generator, for the Figure 2 experiment.
 */

#ifndef VG_APPS_THTTPD_HH
#define VG_APPS_THTTPD_HH

#include <string>
#include <vector>

#include "kernel/kernel.hh"

namespace vg::apps
{

/** thttpd configuration. */
struct ThttpdConfig
{
    uint16_t port = 80;
    /** Serve this many requests, then exit (0 = forever). */
    uint64_t maxRequests = 0;
};

/** Serve files from the filesystem over HTTP/1.0. */
int thttpd(kern::UserApi &api, const ThttpdConfig &config);

/** thttpdMulti configuration. */
struct ThttpdMultiConfig
{
    uint16_t port = 80;
    /** Serve this many requests, then exit (0 = forever). */
    uint64_t maxRequests = 0;
    /** Connection-slot cap: above this, new connections wait in the
     *  listen queue until a slot frees. */
    unsigned maxConcurrent = 512;
};

/**
 * Event-driven thttpd: one process multiplexing many connections over
 * select(), the fleet-serving variant. Connection state lives in a
 * slot table recycled through a LIFO free-list with an fd -> slot
 * index, so accepting, servicing and retiring a connection are all
 * O(1) in the number of live connections — no per-accept scan.
 * Adoption of each new connection in the kernel is likewise an O(1)
 * conn-table id lookup (kernel.conn_table_* stats).
 */
int thttpdMulti(kern::UserApi &api, const ThttpdMultiConfig &config);

/** ApacheBench-style results. */
struct AbResult
{
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t bytes = 0;
    /** Simulated cycles spent across the run. */
    uint64_t cycles = 0;
    /** Per-request latency samples (cycles), one per GET. */
    std::vector<uint64_t> requestCycles;
};

/** Issue @p requests GETs for @p path against @p port. */
AbResult apacheBench(kern::UserApi &api, const std::string &path,
                     uint64_t requests, uint16_t port = 80);

/**
 * Closed-loop concurrent ApacheBench: keep up to @p concurrency
 * connections open simultaneously (connect + send the GET up front,
 * then reap responses in FIFO order, replacing each retired
 * connection with a fresh one until @p requests have been issued).
 * Per-request latency spans connect() to last response byte, so
 * server-side queueing under load shows up in the tail.
 */
AbResult apacheBenchConcurrent(kern::UserApi &api,
                               const std::string &path,
                               uint64_t requests, unsigned concurrency,
                               uint16_t port = 80);

} // namespace vg::apps

#endif // VG_APPS_THTTPD_HH
