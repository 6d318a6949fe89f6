/**
 * @file
 * NDJSON socket front-end for the experiment service.
 *
 * One SocketServer binds a listening endpoint and pumps lines between
 * connections and a ServiceCore: every received line is one request,
 * every response is one line. All protocol logic lives in the core —
 * this file is transport only.
 *
 * Endpoints:
 *   "tcp:PORT"     listen on 127.0.0.1:PORT (loopback only; the
 *                  service runs arbitrary-cost jobs and has no auth)
 *   "unix:PATH"    listen on a Unix-domain stream socket
 *   "PATH"         shorthand for unix:PATH
 */

#ifndef RINGSIM_SERVICE_SOCKET_SERVER_HPP
#define RINGSIM_SERVICE_SOCKET_SERVER_HPP

#include <string>
#include <vector>

#include "service/connection_registry.hpp"
#include "service/line_service.hpp"

namespace ringsim::service {

class SocketServer
{
  public:
    SocketServer(LineService &core, std::string endpoint);

    /** Closes the listener and joins connection threads. */
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /**
     * Bind and listen. Returns false (and fills @p error) on any
     * socket failure; the daemon should exit rather than retry.
     */
    [[nodiscard]] bool tryStart(std::string *error);

    /**
     * Accept-and-pump until the core accepts a shutdown request.
     * Call after tryStart() succeeded.
     */
    void serve();

    /** The endpoint string this server was built with. */
    const std::string &endpoint() const { return endpoint_; }

  private:
    void handleConnection(int fd, std::string client);

    LineService &core_;
    const std::string endpoint_;
    int listen_fd_ = -1;
    bool unix_path_bound_ = false;
    std::string unix_path_;
    /** Pump threads, one per accepted connection. */
    ConnectionRegistry conns_;
};

/**
 * Split an endpoint string. Returns true and fills either @p tcp_port
 * (tcp) or @p unix_path (unix); false with @p error on a malformed
 * endpoint.
 */
[[nodiscard]] bool tryParseEndpoint(const std::string &endpoint,
                                    int *tcp_port,
                                    std::string *unix_path,
                                    std::string *error);

/**
 * Split a comma-separated endpoint list ("tcp:7001,tcp:7002,..."),
 * dropping empty segments (ringsim_fleetd --workers).
 */
std::vector<std::string> splitEndpointList(const std::string &list);

} // namespace ringsim::service

#endif // RINGSIM_SERVICE_SOCKET_SERVER_HPP
