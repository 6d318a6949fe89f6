#include "job.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "coherence/driver.hpp"
#include "core/system.hpp"
#include "model/bus_model.hpp"
#include "model/result.hpp"
#include "model/ring_model.hpp"
#include "util/logging.hpp"
#include "verify/model.hpp"

namespace ringsim::service {

const char *
jobKindName(JobKind k)
{
    switch (k) {
      case JobKind::Run:
        return "run";
      case JobKind::Sweep:
        return "sweep";
      case JobKind::Model:
        return "model";
      case JobKind::Verify:
        return "verify";
      case JobKind::Sleep:
        return "sleep";
    }
    return "?";
}

namespace {

/** Non-fatal benchmark name lookup (the trace:: parser fatal()s). */
bool
tryBenchmarkFromName(const std::string &name, trace::Benchmark *out)
{
    std::string lower;
    for (char c : name)
        lower += static_cast<char>(std::tolower(
            static_cast<unsigned char>(c)));
    const struct
    {
        const char *name;
        trace::Benchmark b;
    } table[] = {
        {"mp3d", trace::Benchmark::MP3D},
        {"water", trace::Benchmark::WATER},
        {"cholesky", trace::Benchmark::CHOLESKY},
        {"fft", trace::Benchmark::FFT},
        {"weather", trace::Benchmark::WEATHER},
        {"simple", trace::Benchmark::SIMPLE},
    };
    for (const auto &entry : table) {
        if (lower == entry.name) {
            *out = entry.b;
            return true;
        }
    }
    return false;
}

/** The paper's valid (benchmark, procs) combinations. */
bool
validPreset(trace::Benchmark b, unsigned procs)
{
    switch (b) {
      case trace::Benchmark::MP3D:
      case trace::Benchmark::WATER:
      case trace::Benchmark::CHOLESKY:
        return procs == 8 || procs == 16 || procs == 32;
      case trace::Benchmark::FFT:
      case trace::Benchmark::WEATHER:
      case trace::Benchmark::SIMPLE:
        return procs == 64;
    }
    return false;
}

/** Lowercase wire name of a benchmark. */
std::string
benchmarkWireName(trace::Benchmark b)
{
    std::string lower;
    for (const char *p = trace::benchmarkName(b); *p; ++p)
        lower += static_cast<char>(std::tolower(
            static_cast<unsigned char>(*p)));
    return lower;
}

bool
parseFaults(const util::JsonValue &json, fault::FaultConfig *out,
            std::string *error)
{
    const util::JsonValue *f = json.find("faults");
    if (!f)
        return true; // fault-free default
    if (!f->isObject()) {
        *error = "faults = <non-object>: expected a JSON object";
        return false;
    }
    std::vector<std::string> errors;
    out->corruptRate = f->getNumber("corrupt_rate", 0.0, &errors);
    out->dropRate = f->getNumber("drop_rate", 0.0, &errors);
    out->stallRate = f->getNumber("stall_rate", 0.0, &errors);
    out->stallCycles = static_cast<unsigned>(
        f->getU64("stall_cycles", out->stallCycles, &errors));
    out->seed = f->getU64("seed", out->seed, &errors);
    out->maxFaults = f->getU64("max_faults", 0, &errors);
    out->maxRetries = static_cast<unsigned>(
        f->getU64("max_retries", out->maxRetries, &errors));
    out->retryTimeout = f->getU64("retry_timeout", 0, &errors);
    out->backoffBase = f->getU64("backoff_base", 0, &errors);
    if (errors.empty())
        for (std::string &e : out->check())
            errors.push_back(std::move(e));
    if (!errors.empty()) {
        *error = "faults: " + errors.front();
        return false;
    }
    return true;
}

/** Fault parameters as a canonical (fully materialized) object. */
util::JsonValue
canonicalFaults(const fault::FaultConfig &f)
{
    util::JsonValue o = util::JsonValue::object();
    o.set("corrupt_rate", util::JsonValue::number(f.corruptRate));
    o.set("drop_rate", util::JsonValue::number(f.dropRate));
    o.set("stall_rate", util::JsonValue::number(f.stallRate));
    o.set("stall_cycles", util::JsonValue::integer(f.stallCycles));
    o.set("seed", util::JsonValue::integer(f.seed));
    o.set("max_faults", util::JsonValue::integer(f.maxFaults));
    o.set("max_retries", util::JsonValue::integer(f.maxRetries));
    o.set("retry_timeout", util::JsonValue::integer(f.retryTimeout));
    o.set("backoff_base", util::JsonValue::integer(f.backoffBase));
    return o;
}

} // namespace

bool
JobSpec::tryParse(const util::JsonValue &json, bool allow_test_jobs,
                  JobSpec *out, std::string *error)
{
    if (!json.isObject()) {
        *error = "job = <non-object>: expected a JSON object";
        return false;
    }
    JobSpec spec;
    std::vector<std::string> errors;
    std::string type = json.getString("type", "", &errors);
    if (type == "run")
        spec.kind = JobKind::Run;
    else if (type == "sweep")
        spec.kind = JobKind::Sweep;
    else if (type == "model")
        spec.kind = JobKind::Model;
    else if (type == "verify")
        spec.kind = JobKind::Verify;
    else if (type == "sleep")
        spec.kind = JobKind::Sleep;
    else {
        *error = "type = '" + type +
                 "': expected run, sweep, model, verify or sleep";
        return false;
    }

    if (spec.kind == JobKind::Sleep) {
        if (!allow_test_jobs) {
            *error = "type = 'sleep': test jobs are disabled "
                     "(--test-jobs)";
            return false;
        }
        spec.sleepMs = json.getU64("ms", 10, &errors);
        // Deadlines apply to every kind; tests pin workers with
        // sleep jobs and need expirable queued work behind them.
        spec.deadlineMs = json.getU64("deadline_ms", 0, &errors);
        if (!errors.empty()) {
            *error = errors.front();
            return false;
        }
        *out = spec;
        return true;
    }

    // Shared workload knobs.
    spec.refs = json.getU64("refs", spec.refs, &errors);
    spec.seed = json.getU64("seed", spec.seed, &errors);
    spec.fast = json.getBool("fast", spec.fast, &errors);
    // Service-level knobs (excluded from canonical(): they bound
    // scheduling, not the computed bytes).
    spec.deadlineMs = json.getU64("deadline_ms", 0, &errors);
    spec.allowDegraded = json.getBool("degrade", true, &errors);
    if (spec.refs == 0) {
        *error = "refs = 0: must be positive";
        return false;
    }
    if (!parseFaults(json, &spec.faults, error))
        return false;

    if (spec.kind == JobKind::Sweep) {
        std::string fig = json.getString("figure", "", &errors);
        if (!figures::tryFigureFromName(fig, &spec.figure)) {
            *error = "figure = '" + fig + "': expected one of ";
            for (figures::FigureId id : figures::allFigures()) {
                if (id != figures::allFigures().front())
                    *error += ", ";
                *error += figures::figureName(id);
            }
            return false;
        }
        spec.csv = json.getBool("csv", false, &errors);
        spec.fig6Cholesky = json.getBool("cholesky", false, &errors);
        if (const util::JsonValue *part = json.find("part")) {
            if (!part->isNumber()) {
                *error = "part = <non-number>: expected a block index";
                return false;
            }
            spec.sweepPart = static_cast<std::int64_t>(
                json.getU64("part", 0, &errors));
            std::size_t count = figures::figureBlockCount(
                spec.figure, figures::FigureOptions{},
                spec.fig6Cholesky);
            if (spec.sweepPart < 0 ||
                static_cast<std::size_t>(spec.sweepPart) >= count) {
                *error = strprintf(
                    "part = %lld: %s has %zu blocks (0..%zu)",
                    static_cast<long long>(spec.sweepPart),
                    figures::figureName(spec.figure), count,
                    count - 1);
                return false;
            }
        }
    } else if (spec.kind == JobKind::Verify) {
        std::string proto = json.getString("protocol", "snoop",
                                           &errors);
        if (proto != "snoop" && proto != "directory") {
            *error = "protocol = '" + proto +
                     "': verify checks snoop or directory";
            return false;
        }
        spec.protocol = proto;
        spec.vNodes = static_cast<unsigned>(
            json.getU64("nodes", spec.vNodes, &errors));
        spec.vBlocks = static_cast<unsigned>(
            json.getU64("blocks", spec.vBlocks, &errors));
        spec.vInflight = static_cast<unsigned>(
            json.getU64("inflight", spec.vInflight, &errors));
        spec.vFaults = json.getBool("with_faults", false, &errors);
        spec.vFull = json.getBool("full", true, &errors);
        verify::ModelConfig mc;
        mc.protocol = proto == "snoop" ? verify::Protocol::Snoop
                                       : verify::Protocol::Directory;
        mc.nodes = spec.vNodes;
        mc.blocks = spec.vBlocks;
        mc.inflight = spec.vInflight;
        mc.faults = spec.vFaults;
        mc.fullInterleaving = spec.vFull;
        std::string mc_error = mc.check();
        if (!mc_error.empty()) {
            *error = mc_error;
            return false;
        }
    } else {
        // run / model
        std::string b = json.getString("benchmark", "mp3d", &errors);
        if (!tryBenchmarkFromName(b, &spec.benchmark)) {
            *error = "benchmark = '" + b +
                     "': expected mp3d, water, cholesky, fft, "
                     "weather or simple";
            return false;
        }
        spec.procs = static_cast<unsigned>(
            json.getU64("procs", spec.procs, &errors));
        if (!validPreset(spec.benchmark, spec.procs)) {
            *error = strprintf(
                "procs = %u: %s is defined for %s processors",
                spec.procs, benchmarkWireName(spec.benchmark).c_str(),
                spec.benchmark == trace::Benchmark::MP3D ||
                        spec.benchmark == trace::Benchmark::WATER ||
                        spec.benchmark == trace::Benchmark::CHOLESKY
                    ? "8/16/32"
                    : "64");
            return false;
        }
        std::string proto = json.getString("protocol", "snoop",
                                           &errors);
        if (proto != "snoop" && proto != "directory" &&
            proto != "bus") {
            *error = "protocol = '" + proto +
                     "': expected snoop, directory or bus";
            return false;
        }
        spec.protocol = proto;
        spec.period = json.getU64("period", 0, &errors);
        if (spec.kind == JobKind::Model)
            spec.cycleNs = json.getNumber("cycle_ns", spec.cycleNs,
                                          &errors);
        if (spec.cycleNs <= 0) {
            *error = strprintf("cycle_ns = %g: must be positive",
                               spec.cycleNs);
            return false;
        }
        if (proto == "bus" && spec.faults.enabled()) {
            *error = "faults: the bus has no fault model; fault "
                     "injection is ring-only";
            return false;
        }
    }
    if (!errors.empty()) {
        *error = errors.front();
        return false;
    }
    *out = spec;
    return true;
}

util::JsonValue
JobSpec::canonical() const
{
    util::JsonValue o = util::JsonValue::object();
    o.set("type", util::JsonValue::string(jobKindName(kind)));
    switch (kind) {
      case JobKind::Sleep:
        o.set("ms", util::JsonValue::integer(sleepMs));
        return o;
      case JobKind::Verify:
        o.set("protocol", util::JsonValue::string(protocol));
        o.set("nodes", util::JsonValue::integer(vNodes));
        o.set("blocks", util::JsonValue::integer(vBlocks));
        o.set("inflight", util::JsonValue::integer(vInflight));
        o.set("with_faults", util::JsonValue::boolean(vFaults));
        o.set("full", util::JsonValue::boolean(vFull));
        return o;
      case JobKind::Sweep:
        o.set("figure",
              util::JsonValue::string(figures::figureName(figure)));
        o.set("csv", util::JsonValue::boolean(csv));
        o.set("cholesky", util::JsonValue::boolean(fig6Cholesky));
        // A part spec is a distinct cacheable unit; a whole sweep
        // keeps its pre-part canonical form (warm caches survive).
        if (sweepPart >= 0)
            o.set("part", util::JsonValue::integer(
                              static_cast<std::uint64_t>(sweepPart)));
        break;
      case JobKind::Run:
      case JobKind::Model:
        o.set("benchmark",
              util::JsonValue::string(benchmarkWireName(benchmark)));
        o.set("procs", util::JsonValue::integer(procs));
        o.set("protocol", util::JsonValue::string(protocol));
        o.set("period", util::JsonValue::integer(period));
        if (kind == JobKind::Model)
            o.set("cycle_ns", util::JsonValue::number(cycleNs));
        break;
    }
    o.set("refs", util::JsonValue::integer(refs));
    o.set("seed", util::JsonValue::integer(seed));
    o.set("fast", util::JsonValue::boolean(fast));
    o.set("faults", canonicalFaults(faults));
    return o;
}

bool
JobSpec::degradable() const
{
    if (kind == JobKind::Sweep)
        return sweepPart < 0 && figures::figureHasModelTier(figure);
    return kind == JobKind::Run || kind == JobKind::Model;
}

figures::FigureOptions
JobSpec::figureOptions() const
{
    figures::FigureOptions opt;
    opt.refs = refs;
    opt.seed = seed;
    opt.fast = fast;
    opt.faults = faults;
    return opt;
}

std::string
JobSpec::describe() const
{
    switch (kind) {
      case JobKind::Run:
      case JobKind::Model:
        return strprintf("%s %s/%u %s", jobKindName(kind),
                         benchmarkWireName(benchmark).c_str(), procs,
                         protocol.c_str());
      case JobKind::Sweep:
        if (sweepPart >= 0)
            return strprintf("sweep %s part %lld%s",
                             figures::figureName(figure),
                             static_cast<long long>(sweepPart),
                             fast ? " (fast)" : "");
        return strprintf("sweep %s%s", figures::figureName(figure),
                         fast ? " (fast)" : "");
      case JobKind::Verify:
        return strprintf("verify %s n=%u b=%u", protocol.c_str(),
                         vNodes, vBlocks);
      case JobKind::Sleep:
        return strprintf("sleep %llu ms",
                         static_cast<unsigned long long>(sleepMs));
    }
    return "?";
}

namespace {

trace::WorkloadConfig
workloadFor(const JobSpec &spec)
{
    trace::WorkloadConfig wl =
        trace::workloadPreset(spec.benchmark, spec.procs);
    spec.figureOptions().apply(wl);
    return wl;
}

util::JsonValue
runResultJson(const core::RunResult &r,
              const trace::WorkloadConfig &wl)
{
    util::JsonValue o = util::JsonValue::object();
    o.set("kind", util::JsonValue::string("run"));
    o.set("protocol",
          util::JsonValue::string(core::protocolName(r.protocol)));
    o.set("workload", util::JsonValue::string(wl.displayName()));
    o.set("proc_util", util::JsonValue::number(r.procUtilization));
    o.set("net_util", util::JsonValue::number(r.networkUtilization));
    o.set("miss_lat_ns", util::JsonValue::number(r.missLatencyNs));
    o.set("miss_lat_all_ns",
          util::JsonValue::number(r.missLatencyAllNs));
    o.set("upgrade_lat_ns",
          util::JsonValue::number(r.upgradeLatencyNs));
    o.set("acquire_wait_ns",
          util::JsonValue::number(r.acquireWaitNs));
    o.set("window", util::JsonValue::integer(r.window));
    o.set("local_misses", util::JsonValue::integer(r.localMisses));
    o.set("clean_miss1", util::JsonValue::integer(r.cleanMiss1));
    o.set("dirty_miss1", util::JsonValue::integer(r.dirtyMiss1));
    o.set("miss2", util::JsonValue::integer(r.miss2));
    o.set("upgrades", util::JsonValue::integer(r.upgrades));
    o.set("faults_injected",
          util::JsonValue::integer(r.faultsInjected));
    o.set("retries", util::JsonValue::integer(r.retries));
    o.set("recovered", util::JsonValue::integer(r.recovered));
    o.set("fatal_txns", util::JsonValue::integer(r.fatalTxns));
    o.set("nacks", util::JsonValue::integer(r.nacks));
    o.set("timeouts", util::JsonValue::integer(r.timeouts));
    return o;
}

util::JsonValue
executeRun(const JobSpec &spec)
{
    trace::WorkloadConfig wl = workloadFor(spec);
    if (spec.protocol == "bus") {
        core::BusSystemConfig cfg = core::BusSystemConfig::forProcs(
            spec.procs, spec.period ? spec.period : 20000);
        return runResultJson(core::runBusSystem(cfg, wl), wl);
    }
    core::RingSystemConfig cfg = core::RingSystemConfig::forProcs(
        spec.procs, spec.period ? spec.period : 2000);
    cfg.common.faults = spec.faults;
    core::ProtocolKind kind = spec.protocol == "snoop"
                                  ? core::ProtocolKind::RingSnoop
                                  : core::ProtocolKind::RingDirectory;
    return runResultJson(core::runRingSystem(cfg, wl, kind), wl);
}

util::JsonValue
executeModel(const JobSpec &spec)
{
    trace::WorkloadConfig wl = workloadFor(spec);
    coherence::Census census = coherence::runFunctional(wl);
    model::ModelResult r;
    if (spec.protocol == "bus") {
        model::BusModelInput in;
        in.census = census;
        in.bus = core::BusSystemConfig::forProcs(
                     spec.procs, spec.period ? spec.period : 20000)
                     .bus;
        in.system.procCycle = nsToTicks(spec.cycleNs);
        r = model::solveBus(in);
    } else {
        model::RingModelInput in;
        in.census = census;
        in.ring = core::RingSystemConfig::forProcs(
                      spec.procs, spec.period ? spec.period : 2000)
                      .ring;
        in.system.procCycle = nsToTicks(spec.cycleNs);
        in.protocol = spec.protocol == "snoop"
                          ? model::RingProtocol::Snoop
                          : model::RingProtocol::Directory;
        r = model::solveRing(in);
    }
    util::JsonValue o = util::JsonValue::object();
    o.set("kind", util::JsonValue::string("model"));
    o.set("workload", util::JsonValue::string(wl.displayName()));
    o.set("protocol", util::JsonValue::string(spec.protocol));
    o.set("cycle_ns", util::JsonValue::number(spec.cycleNs));
    o.set("proc_util", util::JsonValue::number(r.procUtilization));
    o.set("net_util", util::JsonValue::number(r.networkUtilization));
    o.set("miss_lat_ns", util::JsonValue::number(r.missLatencyNs));
    return o;
}

util::JsonValue
executeSweep(const JobSpec &spec, unsigned sweep_jobs)
{
    figures::FigureOptions opt = spec.figureOptions();
    opt.jobs = sweep_jobs;
    if (spec.sweepPart >= 0) {
        // One block of the figure: the rows travel back as strings so
        // the coordinator's reassembly is a pure concatenation — no
        // numeric re-formatting between worker and assembled output.
        std::vector<figures::FigureRow> rows = figures::runFigureBlock(
            spec.figure, opt,
            static_cast<std::size_t>(spec.sweepPart),
            spec.fig6Cholesky);
        util::JsonValue jrows = util::JsonValue::array();
        for (const figures::FigureRow &row : rows) {
            util::JsonValue jrow = util::JsonValue::array();
            for (const std::string &cell : row)
                jrow.append(util::JsonValue::string(cell));
            jrows.append(std::move(jrow));
        }
        util::JsonValue o = util::JsonValue::object();
        o.set("kind", util::JsonValue::string("sweep_part"));
        o.set("figure", util::JsonValue::string(
                            figures::figureName(spec.figure)));
        o.set("part", util::JsonValue::integer(
                          static_cast<std::uint64_t>(spec.sweepPart)));
        o.set("rows", std::move(jrows));
        return o;
    }
    std::string text = figures::renderFigure(
        spec.figure, opt, spec.csv, spec.fig6Cholesky);
    util::JsonValue o = util::JsonValue::object();
    o.set("kind", util::JsonValue::string("sweep"));
    o.set("figure",
          util::JsonValue::string(figures::figureName(spec.figure)));
    o.set("text", util::JsonValue::string(std::move(text)));
    return o;
}

util::JsonValue
executeVerify(const JobSpec &spec)
{
    verify::ModelConfig mc;
    mc.protocol = spec.protocol == "snoop"
                      ? verify::Protocol::Snoop
                      : verify::Protocol::Directory;
    mc.nodes = spec.vNodes;
    mc.blocks = spec.vBlocks;
    mc.inflight = spec.vInflight;
    mc.faults = spec.vFaults;
    mc.fullInterleaving = spec.vFull;
    verify::ModelReport report = verify::checkProtocol(mc);
    util::JsonValue o = util::JsonValue::object();
    o.set("kind", util::JsonValue::string("verify"));
    o.set("protocol", util::JsonValue::string(spec.protocol));
    o.set("clean", util::JsonValue::boolean(report.clean()));
    o.set("violations",
          util::JsonValue::integer(report.violationsTotal));
    o.set("functional_states",
          util::JsonValue::integer(report.functionalStates));
    o.set("product_states",
          util::JsonValue::integer(report.productStates));
    o.set("summary", util::JsonValue::string(report.summary()));
    return o;
}

util::JsonValue
executeSleep(const JobSpec &spec)
{
    std::this_thread::sleep_for(
        std::chrono::milliseconds(spec.sleepMs));
    util::JsonValue o = util::JsonValue::object();
    o.set("kind", util::JsonValue::string("sleep"));
    o.set("slept_ms", util::JsonValue::integer(spec.sleepMs));
    return o;
}

} // namespace

util::JsonValue
executeJob(const JobSpec &spec, unsigned sweep_jobs)
{
    switch (spec.kind) {
      case JobKind::Run:
        return executeRun(spec);
      case JobKind::Sweep:
        return executeSweep(spec, sweep_jobs);
      case JobKind::Model:
        return executeModel(spec);
      case JobKind::Verify:
        return executeVerify(spec);
      case JobKind::Sleep:
        return executeSleep(spec);
    }
    throw std::runtime_error("unreachable job kind");
}

util::JsonValue
executeDegraded(const JobSpec &spec, unsigned sweep_jobs)
{
    util::JsonValue o;
    switch (spec.kind) {
      case JobKind::Run:
      case JobKind::Model: {
        // A run degrades to the queueing-model solve of the same
        // configuration (a model job "degrades" to itself: it is
        // already the fast tier, so answering inline is exact).
        JobSpec model_spec = spec;
        model_spec.kind = JobKind::Model;
        o = executeModel(model_spec);
        o.set("exact_kind",
              util::JsonValue::string(jobKindName(spec.kind)));
        break;
      }
      case JobKind::Sweep: {
        if (spec.sweepPart >= 0)
            throw std::runtime_error(
                "sweep parts have no degraded tier");
        figures::FigureOptions opt = spec.figureOptions();
        opt.jobs = sweep_jobs;
        opt.modelOnly = true;
        std::string text = figures::renderFigure(
            spec.figure, opt, spec.csv, spec.fig6Cholesky);
        o = util::JsonValue::object();
        o.set("kind", util::JsonValue::string("sweep"));
        o.set("figure", util::JsonValue::string(
                            figures::figureName(spec.figure)));
        o.set("model_only", util::JsonValue::boolean(true));
        o.set("text", util::JsonValue::string(std::move(text)));
        break;
      }
      default:
        throw std::runtime_error(
            strprintf("job kind %s has no degraded tier",
                      jobKindName(spec.kind)));
    }
    o.set("degraded", util::JsonValue::boolean(true));
    // Model jobs answered by the model are exact; everything else
    // carries the paper's calibrated accuracy envelope.
    o.set("error_bound",
          util::JsonValue::number(
              spec.kind == JobKind::Model ? 0.0
                                          : model::kModelErrorBound));
    return o;
}

std::string
degradedAnswer(const JobSpec &spec, std::uint64_t id,
               unsigned sweep_jobs)
{
    util::JsonValue o = util::JsonValue::object();
    o.set("ok", util::JsonValue::boolean(true));
    o.set("op", util::JsonValue::string("submit"));
    o.set("id", util::JsonValue::integer(id));
    o.set("state", util::JsonValue::string("done"));
    o.set("cached", util::JsonValue::boolean(false));
    o.set("degraded", util::JsonValue::boolean(true));
    o.set("result", executeDegraded(spec, sweep_jobs));
    return o.dump();
}

} // namespace ringsim::service
