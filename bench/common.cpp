#include "common.hpp"

#include <cstdlib>
#include <iostream>

#include "service/client.hpp"
#include "service/job.hpp"
#include "util/logging.hpp"

namespace ringsim::bench {

Options
parseOptions(int argc, char **argv, bool cholesky_flag)
{
    Options opt;
    figures::FigureOptions &fo = opt.figure;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto need_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (arg == "--refs") {
            fo.refs = std::strtoull(need_value("--refs").c_str(),
                                    nullptr, 10);
            if (fo.refs == 0)
                fatal("--refs must be positive");
        } else if (arg == "--seed") {
            fo.seed = std::strtoull(need_value("--seed").c_str(),
                                    nullptr, 10);
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--fast") {
            fo.fast = true;
        } else if (arg == "--jobs") {
            fo.jobs = static_cast<unsigned>(
                std::strtoul(need_value("--jobs").c_str(), nullptr, 10));
            if (fo.jobs == 0)
                fatal("--jobs must be positive");
        } else if (arg == "--fault-rate") {
            double rate =
                std::strtod(need_value("--fault-rate").c_str(), nullptr);
            fo.faults.corruptRate = rate;
            fo.faults.dropRate = rate;
        } else if (arg == "--fault-stalls") {
            fo.faults.stallRate = std::strtod(
                need_value("--fault-stalls").c_str(), nullptr);
        } else if (arg == "--fault-seed") {
            fo.faults.seed = std::strtoull(
                need_value("--fault-seed").c_str(), nullptr, 10);
        } else if (arg == "--service") {
            opt.service = need_value("--service");
        } else if (arg == "--cholesky" && cholesky_flag) {
            opt.cholesky = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "flags: --refs N  --seed S  --csv  --fast  "
                         "--jobs N  --fault-rate R  --fault-stalls R  "
                         "--fault-seed S  --service ENDPOINT\n";
            std::exit(0);
        } else {
            fatal("unknown flag '%s' (try --help)", arg.c_str());
        }
    }
    fo.faults.validate();
    return opt;
}

int
runFigure(figures::FigureId id, const Options &opt)
{
    if (opt.service.empty()) {
        std::cout << figures::renderFigure(id, opt.figure, opt.csv,
                                           opt.cholesky);
        return 0;
    }
    // The request is the sweep job's canonical spec: the daemon
    // parses it back to the same spec, so its cache key is the one
    // any other client of the same sweep computes.
    service::JobSpec spec;
    spec.kind = service::JobKind::Sweep;
    spec.figure = id;
    spec.csv = opt.csv;
    spec.fig6Cholesky = opt.cholesky;
    spec.refs = opt.figure.refs;
    spec.seed = opt.figure.seed;
    spec.fast = opt.figure.fast;
    spec.faults = opt.figure.faults;
    util::JsonValue req = util::JsonValue::object();
    req.set("op", util::JsonValue::string("submit"));
    req.set("wait", util::JsonValue::boolean(true));
    req.set("job", spec.canonical());

    service::ServiceClient client;
    std::string error;
    if (!client.tryConnect(opt.service, &error))
        fatal("--service %s: %s", opt.service.c_str(), error.c_str());
    util::JsonValue response;
    // Resilient call: a daemon under --chaos may drop or garble the
    // response; the retry must still deliver the byte-identical text.
    if (!client.tryCallResilient(req, &response, &error))
        fatal("--service %s: %s", opt.service.c_str(), error.c_str());
    std::vector<std::string> errors;
    std::string state = response.getString("state", "?", &errors);
    if (state != "done")
        fatal("--service %s: job ended %s: %s", opt.service.c_str(),
              state.c_str(),
              response.getString("error", "?", &errors).c_str());
    const util::JsonValue *result = response.find("result");
    const util::JsonValue *text = result ? result->find("text")
                                         : nullptr;
    if (!text || !text->isString())
        fatal("--service %s: response carries no result text",
              opt.service.c_str());
    std::cout << text->asString();
    return 0;
}

} // namespace ringsim::bench
