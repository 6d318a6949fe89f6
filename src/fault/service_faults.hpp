/**
 * @file
 * Deterministic fault injection for the experiment *service* layer.
 *
 * PR 2's FaultPlan hardens the simulated ring; this file lifts the
 * same discipline to the daemon that serves it. An enabled injector
 * perturbs the service's I/O edges:
 *
 *  - slow writes: a response is sent in small chunks with short
 *    delays, exercising clients that assume one read per line;
 *  - disconnects: the connection is closed after a response prefix,
 *    exercising client reconnect-and-retry;
 *  - garbles: a byte of the NDJSON response is flipped, exercising
 *    client-side parse rejection and retry;
 *  - torn cache writes: a just-published disk-cache entry is
 *    truncated, exercising verify-on-load and quarantine;
 *  - cache bit-flips: a byte of a published entry is flipped,
 *    exercising the per-entry checksum.
 *
 * Like the ring's FaultPlan, every decision is a pure function of
 * (seed, fault kind, site sequence number) — no RNG state advances —
 * so one seed reproduces the identical decision sequence at every
 * site. (Thread interleaving still varies across runs; determinism
 * is per-site, which is what makes a chaos failure replayable.)
 *
 * None of the faults may change the bytes of a successfully delivered
 * non-degraded answer: the injector breaks transports and storage,
 * and the recovery machinery must hide that — the chaos smoke test
 * asserts exactly this.
 */

#ifndef RINGSIM_FAULT_SERVICE_FAULTS_HPP
#define RINGSIM_FAULT_SERVICE_FAULTS_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace ringsim::fault {

/** The injectable service-layer fault classes. */
enum class ServiceFaultKind : unsigned {
    SlowWrite,  //!< response sent in tiny chunks with delays
    Disconnect, //!< connection closed after a response prefix
    Garble,     //!< one response byte flipped (unparsable NDJSON)
    TornWrite,  //!< disk-cache entry truncated after publish
    BitFlip,    //!< disk-cache entry byte flipped after publish
};

/** Fault-injection parameters of one daemon instance. */
struct ServiceFaultConfig
{
    /** Seed of the deterministic decision schedule. */
    std::uint64_t seed = 1;

    /** Per response: probability of a chunked slow write. */
    double slowWriteRate = 0.0;

    /** Per response: probability of a mid-response disconnect. */
    double disconnectRate = 0.0;

    /** Per response: probability one byte is flipped. */
    double garbleRate = 0.0;

    /** Per disk-cache publish: probability the file is truncated. */
    double tornWriteRate = 0.0;

    /** Per disk-cache publish: probability one byte is flipped. */
    double bitFlipRate = 0.0;

    /** Chunk size of one slow write, in bytes. */
    unsigned slowChunkBytes = 7;

    /** Delay between slow-write chunks, in microseconds. */
    unsigned slowChunkDelayUs = 200;

    /** True when any fault rate is nonzero. */
    bool enabled() const
    {
        return slowWriteRate > 0.0 || disconnectRate > 0.0 ||
               garbleRate > 0.0 || tornWriteRate > 0.0 ||
               bitFlipRate > 0.0;
    }

    /**
     * The preset used by `ringsim_serve --chaos SEED` and the chaos
     * smoke script: every class enabled at a rate the recovery
     * machinery must absorb without failing a request.
     */
    static ServiceFaultConfig chaosPreset(std::uint64_t seed);

    /** All misconfigurations, as human-readable messages. */
    [[nodiscard]] std::vector<std::string> check() const;

    /** fatal() with the first check() error, if any. */
    void validate() const;
};

/** Injected-fault counters of one daemon instance (for statsz). */
struct ServiceFaultCounters
{
    Count slowWrites = 0;
    Count disconnects = 0;
    Count garbles = 0;
    Count tornWrites = 0;
    Count bitFlips = 0;
};

/**
 * Stateful front end the service's I/O edges query: applies the pure
 * decision schedule and owns the injection counters. Thread-safe —
 * connection threads and cache writers share one injector. The class
 * is deliberately lock-free: every member is an independent atomic
 * (a per-site sequence number or a fire counter), no invariant spans
 * two of them, and counters() reads a snapshot that may be mid-update
 * — exact cross-site consistency is not part of its contract. That is
 * why, unlike every mutex-guarded service class, there is nothing
 * here for thread-safety annotations to check.
 */
class ServiceFaultInjector
{
  public:
    /** @param config validated fault parameters. */
    explicit ServiceFaultInjector(const ServiceFaultConfig &config);

    const ServiceFaultConfig &config() const { return config_; }

    /**
     * Pure decision: does @p kind fire at sequence number @p seq
     * under @p rate with @p seed? Exposed for determinism tests.
     */
    static bool decide(std::uint64_t seed, ServiceFaultKind kind,
                       std::uint64_t seq, double rate);

    /** Next response: should it be written slowly? Counts the fire. */
    bool slowWrite();

    /** Next response: disconnect mid-write? Counts the fire. */
    bool disconnect();

    /** Next response: flip a byte? Counts the fire. */
    bool garble();

    /** Next cache publish: truncate the file? Counts the fire. */
    bool tornWrite();

    /** Next cache publish: flip a byte? Counts the fire. */
    bool bitFlip();

    /** Counter snapshot. */
    ServiceFaultCounters counters() const;

  private:
    bool fire(ServiceFaultKind kind, std::atomic<std::uint64_t> &seq,
              double rate, std::atomic<std::uint64_t> &counter);

    const ServiceFaultConfig config_;

    // Per-site sequence numbers (one independent schedule per site).
    std::atomic<std::uint64_t> slow_seq_{0};
    std::atomic<std::uint64_t> disconnect_seq_{0};
    std::atomic<std::uint64_t> garble_seq_{0};
    std::atomic<std::uint64_t> torn_seq_{0};
    std::atomic<std::uint64_t> flip_seq_{0};

    std::atomic<std::uint64_t> slow_fired_{0};
    std::atomic<std::uint64_t> disconnect_fired_{0};
    std::atomic<std::uint64_t> garble_fired_{0};
    std::atomic<std::uint64_t> torn_fired_{0};
    std::atomic<std::uint64_t> flip_fired_{0};
};

} // namespace ringsim::fault

#endif // RINGSIM_FAULT_SERVICE_FAULTS_HPP
