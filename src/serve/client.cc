#include "serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "common/log.h"

namespace mlgs::serve
{

Client::Client(const std::string &socket_path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    MLGS_REQUIRE(socket_path.size() < sizeof(addr.sun_path),
                 "serve: socket path is too long for AF_UNIX (",
                 socket_path.size(), " bytes): ", socket_path);
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    MLGS_REQUIRE(fd_ >= 0, "serve: cannot create socket: ",
                 std::strerror(errno));
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        const int err = errno;
        ::close(fd_);
        fd_ = -1;
        fatal("serve: cannot connect to ", socket_path, ": ",
              std::strerror(err), " (is mlgs-serve running?)");
    }
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::vector<uint8_t>
Client::roundTrip(const BinaryWriter &req)
{
    MLGS_REQUIRE(fd_ >= 0, "serve: client connection is closed");
    writeFrame(fd_, req);
    auto resp = readFrame(fd_);
    MLGS_REQUIRE(resp.has_value(),
                 "serve: daemon closed the connection without answering");
    return std::move(*resp);
}

SubmitResponse
Client::submit(const std::vector<uint8_t> &trace_bytes,
               const SubmitOptions &opts)
{
    SubmitRequest req;
    req.priority = opts.priority;
    req.timing_mode = opts.timing_mode;
    req.has_options_override = opts.has_options_override;
    req.options_override = opts.options_override;
    req.trace_bytes = trace_bytes;

    BinaryWriter w;
    req.encode(w);
    BinaryReader r(roundTrip(w), "serve response");
    const MsgType type = readMsgType(r);
    if (type == MsgType::ErrorResponse)
        fatal("serve: daemon rejected the request: ", r.getString());
    MLGS_REQUIRE(type == MsgType::SubmitResponse,
                 "serve: unexpected response type ", unsigned(type),
                 " to a submission");
    return SubmitResponse::decode(r);
}

SubmitResponse
Client::submit(const trace::TraceFile &trace, const SubmitOptions &opts)
{
    BinaryWriter w;
    trace.write(w);
    return submit(w.bytes(), opts);
}

SubmitResponse
Client::submitFile(const std::string &path, const SubmitOptions &opts)
{
    BinaryReader r = BinaryReader::fromFile(path);
    // Hand the raw image to the daemon untouched; it parses and verifies
    // the content hash itself.
    std::vector<uint8_t> bytes(r.remaining());
    r.getBytes(bytes.data(), bytes.size());
    return submit(bytes, opts);
}

SubmitResponse
Client::submitWithRetry(const std::vector<uint8_t> &trace_bytes,
                        const SubmitOptions &opts, unsigned max_attempts)
{
    SubmitResponse resp;
    for (unsigned attempt = 0; attempt < std::max(1u, max_attempts);
         attempt++) {
        resp = submit(trace_bytes, opts);
        if (resp.status != Status::RetryAfter)
            return resp;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::max<uint32_t>(
                1, resp.retry_after_ms)));
    }
    return resp;
}

ServerInfo
Client::info()
{
    BinaryWriter w;
    beginMsg(w, MsgType::InfoRequest);
    BinaryReader r(roundTrip(w), "serve response");
    const MsgType type = readMsgType(r);
    if (type == MsgType::ErrorResponse)
        fatal("serve: daemon rejected the request: ", r.getString());
    MLGS_REQUIRE(type == MsgType::InfoResponse,
                 "serve: unexpected response type ", unsigned(type),
                 " to an info request");
    return ServerInfo::decode(r);
}

void
Client::ping()
{
    BinaryWriter w;
    beginMsg(w, MsgType::PingRequest);
    BinaryReader r(roundTrip(w), "serve response");
    MLGS_REQUIRE(readMsgType(r) == MsgType::PingResponse,
                 "serve: unexpected response to a ping");
}

void
Client::requestShutdown()
{
    BinaryWriter w;
    beginMsg(w, MsgType::ShutdownRequest);
    BinaryReader r(roundTrip(w), "serve response");
    MLGS_REQUIRE(readMsgType(r) == MsgType::ShutdownResponse,
                 "serve: unexpected response to a shutdown request");
}

} // namespace mlgs::serve
