/**
 * @file
 * perfbench_harness entry point.
 *
 *   perfbench_harness --name NAME --figure fig4|fig6 --seed N
 *                     --seconds S --trace 0|1 --bin-dir DIR
 *                     --work-dir DIR --out FILE [--threads N]
 *                     [--refs N] [--recorded-seed N]
 *
 * Runs one workload in DIR (sockets and cache directories live there)
 * and writes its raw samples, counts and — traced — spans to FILE as
 * one JSON document. perfbench/run.py chooses the arguments.
 */

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>

#include "harness.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_harness: " << why << "\n";
    std::exit(2);
}

std::uint64_t
number(const std::map<std::string, std::string> &flags,
       const std::string &key, std::uint64_t fallback)
{
    auto it = flags.find(key);
    if (it == flags.end())
        return fallback;
    char *end = nullptr;
    std::uint64_t v = std::strtoull(it->second.c_str(), &end, 10);
    if (it->second.empty() || *end != '\0')
        usage(key + " = '" + it->second + "': expected an integer");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("bad argument '" + arg + "'");
        flags[arg] = argv[++i];
    }
    for (const char *required : {"--name", "--figure", "--seed",
                                 "--seconds", "--trace", "--bin-dir",
                                 "--work-dir", "--out"})
        if (!flags.count(required))
            usage(std::string(required) + " is required");

    WorkloadArgs args;
    args.name = flags["--name"];
    args.seed = number(flags, "--seed", 1);
    args.seconds = std::strtod(flags["--seconds"].c_str(), nullptr);
    args.trace = number(flags, "--trace", 0) != 0;
    args.binDir = flags["--bin-dir"];
    args.threads =
        static_cast<unsigned>(number(flags, "--threads", args.threads));
    if (!ringsim::figures::tryFigureFromName(flags["--figure"],
                                             &args.figure))
        usage("--figure must be fig4 or fig6");
    args.refs = number(flags, "--refs", args.refs);
    args.recordedSeed = number(flags, "--recorded-seed", 12345);
    // Opened before entering the work directory: the path may be
    // relative to the caller's.
    std::ofstream out(flags["--out"]);
    if (!out)
        usage("cannot write --out " + flags["--out"]);
    if (chdir(flags["--work-dir"].c_str()) != 0)
        usage("cannot enter --work-dir " + flags["--work-dir"]);

    JsonValue doc = runFigWorkload(args);
    out << doc.dump() << "\n";
    return out.good() ? 0 : 1;
}
