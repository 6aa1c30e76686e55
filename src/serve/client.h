/**
 * @file
 * Client library of mlgs-serve: a thin, blocking connection to the daemon's
 * AF_UNIX socket. One Client is one connection; submissions are synchronous
 * request/response (for concurrency, open one Client per thread — the
 * daemon multiplexes). submitWithRetry() folds the daemon's RetryAfter
 * overload shedding into client-side backoff so callers can treat a loaded
 * daemon as merely slow.
 */
#ifndef MLGS_SERVE_CLIENT_H
#define MLGS_SERVE_CLIENT_H

#include <string>
#include <vector>

#include "serve/protocol.h"

namespace mlgs::serve
{

/** Everything a submission needs besides the trace itself. */
struct SubmitOptions
{
    uint8_t priority = 0;
    uint8_t timing_mode = 0; ///< sample::TimingMode raw; Auto = trace default
    bool has_options_override = false;
    trace::TraceOptions options_override;
};

class Client
{
  public:
    /** Connect to a daemon; FatalError if the socket cannot be reached. */
    explicit Client(const std::string &socket_path);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }

    /** Submit serialized trace bytes; blocks for the daemon's answer. */
    SubmitResponse submit(const std::vector<uint8_t> &trace_bytes,
                          const SubmitOptions &opts = SubmitOptions{});

    /** Serialize an in-memory trace and submit it. */
    SubmitResponse submit(const trace::TraceFile &trace,
                          const SubmitOptions &opts = SubmitOptions{});

    /** Load a .mlgstrace file and submit it. */
    SubmitResponse submitFile(const std::string &path,
                              const SubmitOptions &opts = SubmitOptions{});

    /**
     * submit(), but honour RetryAfter by sleeping the daemon's hint and
     * retrying, up to max_attempts. The returned status is RetryAfter only
     * if every attempt was shed.
     */
    SubmitResponse submitWithRetry(const std::vector<uint8_t> &trace_bytes,
                                   const SubmitOptions &opts = SubmitOptions{},
                                   unsigned max_attempts = 20);

    ServerInfo info();

    /** Round-trip liveness check. */
    void ping();

    /** Ask the daemon to drain and exit (acknowledged before the drain). */
    void requestShutdown();

  private:
    std::vector<uint8_t> roundTrip(const BinaryWriter &req);

    int fd_ = -1;
};

} // namespace mlgs::serve

#endif // MLGS_SERVE_CLIENT_H
