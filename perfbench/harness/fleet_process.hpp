/**
 * @file
 * A local fleet: N ringsim_serve workers, each with its own
 * --cache-dir, behind one ringsim_fleetd coordinator, all on unix
 * sockets in the harness's working directory.
 */

#ifndef PERFBENCH_FLEET_PROCESS_HPP
#define PERFBENCH_FLEET_PROCESS_HPP

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

class Fleet
{
  public:
    /** Worker daemons, each `--workers 1 --mem-cache 8`. */
    static constexpr unsigned kWorkers = 2;

    /**
     * @param bin_dir    directory holding ringsim_serve/ringsim_fleetd
     * @param tag        prefix of socket and cache-dir names
     */
    Fleet(std::string bin_dir, std::string tag);

    /** Stops every daemon still running. */
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /**
     * Spawn every daemon and wait until each answers ping. Returns the
     * seconds from the first spawn to the last ping answer, or a
     * negative value (with @p error) on failure.
     */
    double start(std::string *error);

    /** Ask every daemon to shut down and reap it (SIGKILL after 5 s). */
    void stop();

    const std::string &coordinator() const { return coordinator_; }
    const std::vector<std::string> &workers() const { return workers_; }

    /** statsz of one endpoint (null on failure). */
    static ringsim::util::JsonValue statsz(const std::string &endpoint);

  private:
    pid_t spawn(const std::vector<std::string> &argv);

    std::string binDir_;
    std::string tag_;
    std::string coordinator_;
    std::vector<std::string> workers_;
    std::vector<pid_t> pids_; //!< workers first, coordinator last
};

} // namespace perfbench

#endif // PERFBENCH_FLEET_PROCESS_HPP
