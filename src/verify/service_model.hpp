/**
 * @file
 * Deterministic schedule explorer for the service job lifecycle.
 *
 * checkServiceLifecycle() BFS-explores every interleaving of a small
 * configuration (up to 3 jobs, 2 clients, 2 workers) of the
 * experiment-service state machine that src/service/server.cpp
 * implements under its one mutex: bounded admission, per-client
 * round-robin FIFOs, pool-task dispatch decoupled from job identity,
 * lazy watchdog abandonment, deadlines, explicit cancellation,
 * disconnect sweeps, degraded escalation, and late-completion
 * accounting. The model steps the same transitions the locked
 * sections of ServiceCore perform; the explorer proves that no
 * interleaving of them can break the service's accounting:
 *
 *  - Admission-slot conservation: the `active` counter the code
 *    maintains always equals the number of jobs genuinely holding a
 *    slot, never exceeds the queue depth, and drains to zero at
 *    quiescence. This covers the subtle paths — a pool task that
 *    picks an already-cancelled job must release the slot it carries;
 *    a late completion of an abandoned job must release exactly once.
 *  - No lost jobs: every admitted job reaches exactly one answered
 *    terminal state (done, timed_out or cancelled), no matter how
 *    cancels, deadlines, watchdog fires and disconnects interleave
 *    with dispatch and completion.
 *  - No double answers: a thread finishing after its job was
 *    cancelled or abandoned is counted as a late completion and
 *    discarded — it never re-answers the job.
 *  - Cancellation-race safety: cancel-vs-complete, deadline-vs-
 *    dispatch and disconnect-vs-shed races all resolve to a single
 *    consistent terminal state.
 *  - Single-flight coalescing safety (ServiceCore::inflight_, the
 *    serving stack's one single-flight): a duplicate submission of an
 *    in-flight spec attaches as a waiter to the leader job without
 *    consuming an admission slot; *every* leader terminal state —
 *    including leader death by cancel, deadline or watchdog — answers
 *    all attached waiters exactly once. No interleaving can orphan a
 *    waiter (blocked forever on a finished flight) or answer one
 *    twice, and a waiter never starts an execution of its own.
 *
 * A ServiceMutation seeds one deliberately broken transition (for
 * example a drain path that forgets to release its admission slot);
 * the self-tests prove every mutation is caught, and the report's
 * counterexample is a numbered, human-readable event trace that can
 * be replayed against the real ServiceCore (see
 * tests/service/lifecycle_race_test.cpp).
 *
 * Event model notes: a deadline expiring on a *running* job is
 * structurally identical to a watchdog fire (Running -> TimedOut,
 * thread abandoned), so one event covers both; record eviction
 * (trimDone) is not modeled — the checked configurations correspond
 * to retainDone >= jobs.
 */

#ifndef RINGSIM_VERIFY_SERVICE_MODEL_HPP
#define RINGSIM_VERIFY_SERVICE_MODEL_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace ringsim::verify {

/** Deliberately broken service transition to seed (tests). */
enum class ServiceMutation {
    None,
    /** The pool task draining a cancelled queued job forgets to
     *  release its admission slot. */
    DropDrainRelease,
    /** A late completion (thread outliving a cancelled/abandoned job)
     *  forgets to release its admission slot. */
    DropLateRelease,
    /** A late completion re-answers the job as done instead of being
     *  discarded. */
    DoubleAnswerLate,
    /** The shed path consumes an admission slot it never admits. */
    ShedLeaksSlot,
    /** A cancel transitions the job but never renders an answer. */
    SkipCancelAnswer,
    /** A leader's terminal transition forgets to answer its attached
     *  waiters (they block forever on the finished flight). */
    DropWaiterAnswer,
    /** The leader's finish path forgets to erase the in-flight map
     *  entry, so a later duplicate attaches to a dead leader. */
    StaleInflightAttach,
    /** A late completion replays the waiter answers its job already
     *  rendered at its terminal transition. */
    DoubleAnswerWaiters,
};

/** All mutations, for CLI listing and test sweeps. */
inline constexpr ServiceMutation allServiceMutations[] = {
    ServiceMutation::DropDrainRelease,
    ServiceMutation::DropLateRelease,
    ServiceMutation::DoubleAnswerLate,
    ServiceMutation::ShedLeaksSlot,
    ServiceMutation::SkipCancelAnswer,
    ServiceMutation::DropWaiterAnswer,
    ServiceMutation::StaleInflightAttach,
    ServiceMutation::DoubleAnswerWaiters,
};

/** Printable mutation name ("drop-drain-release", ...). */
const char *serviceMutationName(ServiceMutation m);

/** Parse a mutation name; false if unknown. */
[[nodiscard]] bool serviceMutationFromName(const std::string &name,
                                           ServiceMutation *out);

/** One exhaustive service-lifecycle check job. */
struct ServiceModelConfig
{
    unsigned jobs = 3;    //!< jobs submitted (1..3)
    unsigned clients = 2; //!< submitting clients (1..2)
    unsigned workers = 1; //!< pool worker threads (1..2)
    unsigned depth = 2;   //!< admission bound, queued+running (1..3)

    bool cancels = true;     //!< explore explicit cancel events
    bool deadlines = true;   //!< explore queued-deadline expiry
    bool watchdog = true;    //!< explore running-job abandonment
    bool disconnects = true; //!< explore client-disconnect sweeps
    bool degrades = true;    //!< explore degraded escalation on poll
    bool coalesce = true;    //!< explore single-flight waiter attach

    ServiceMutation mutation = ServiceMutation::None;

    /** Validate ranges; returns a message naming the bad field. */
    [[nodiscard]] std::string check() const;
};

/** What the explorer can find wrong. */
enum class ServiceDefect {
    SlotOverflow, //!< active exceeded the admission bound
    SlotDrift,    //!< active != jobs actually holding a slot
    SlotLeak,     //!< quiescent state with active != 0
    LostJob,      //!< admitted job never answered
    DoubleAnswer, //!< job (or one of its waiters) answered twice
    StuckJob,     //!< quiescent state with a queued/running job
    OrphanedWaiter, //!< coalesced waiter never answered
};

/** Printable defect name. */
const char *serviceDefectName(ServiceDefect d);

/** One concrete counterexample: a defect plus the event trace that
 *  reaches it from the empty service. */
struct ServiceFinding
{
    ServiceDefect kind = ServiceDefect::SlotLeak;
    std::string detail; //!< one-line description of the violation
    /** Numbered events from the initial state to the violation. */
    std::vector<std::string> trace;
};

/** Exploration statistics and verdict. */
struct ServiceModelReport
{
    ServiceModelConfig config;

    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t quiescentStates = 0;
    /** True if the state cap was hit (never in shipped configs). */
    bool truncated = false;

    std::uint64_t violationsTotal = 0;
    /** First few findings (capped; violationsTotal has the count). */
    std::vector<ServiceFinding> findings;

    [[nodiscard]] bool clean() const
    {
        return violationsTotal == 0 && !truncated;
    }

    /** One-line result, e.g. for the CLI table. */
    std::string summary() const;
};

/** Exhaustively explore one configuration. */
[[nodiscard]] ServiceModelReport
checkServiceLifecycle(const ServiceModelConfig &config);

} // namespace ringsim::verify

#endif // RINGSIM_VERIFY_SERVICE_MODEL_HPP
