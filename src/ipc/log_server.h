// The log server endpoint and its client stub.
//
// The paper implements Clio as an extension of a file server process that
// clients reach through kernel IPC; §3.2's measurements are of exactly this
// client -> IPC -> server -> block-cache path. LogServer services a
// PartitionedLogService over an IpcChannel on its own thread; LogClient is
// the marshalled client stub. The wire format and the request execution live
// in src/ipc/codec.* and are shared with the TCP transport in src/net/.
#ifndef SRC_IPC_LOG_SERVER_H_
#define SRC_IPC_LOG_SERVER_H_

#include <memory>
#include <string_view>
#include <thread>

#include "src/clio/log_service.h"
#include "src/ipc/channel.h"
#include "src/ipc/codec.h"

namespace clio {

class LogServer {
 public:
  // `service` must outlive the server.
  LogServer(PartitionedLogService* service, IpcChannel* channel)
      : dispatcher_(std::make_unique<ServiceDispatcher>(service)),
        channel_(channel) {}
  // Serves a plain LogService as a one-partition deployment, through a
  // PartitionedLogService::Wrap view the server owns. Once served, create
  // log files through the server, not on `service` directly. A service the
  // view rejects (its catalog names other partitions) answers every
  // request with that error.
  LogServer(LogService* service, IpcChannel* channel);
  ~LogServer() { Stop(); }

  LogServer(const LogServer&) = delete;
  LogServer& operator=(const LogServer&) = delete;

  // Spawns the service thread. Stop() (or destruction) shuts it down.
  void Start();
  void Stop();

  // Serves requests on the calling thread until the channel shuts down.
  void Run();

 private:
  std::unique_ptr<PartitionedLogService> owned_view_;
  std::unique_ptr<ServiceDispatcher> dispatcher_;  // null if Wrap failed
  Status wrap_status_;
  IpcChannel* channel_;
  std::thread thread_;
};

class LogClient : public LogClientBase {
 public:
  explicit LogClient(IpcChannel* channel) : channel_(channel) {}

 private:
  Result<Bytes> Call(LogOp op, const Bytes& body) override;

  IpcChannel* channel_;
};

}  // namespace clio

#endif  // SRC_IPC_LOG_SERVER_H_
