#include "src/ipc/log_server.h"

#include <utility>

namespace clio {

LogServer::LogServer(LogService* service, IpcChannel* channel)
    : channel_(channel) {
  auto view = PartitionedLogService::Wrap(service);
  if (!view.ok()) {
    wrap_status_ = view.status();
    return;
  }
  owned_view_ = std::move(view).value();
  dispatcher_ = std::make_unique<ServiceDispatcher>(owned_view_.get());
}

void LogServer::Start() {
  thread_ = std::thread([this] { Run(); });
}

void LogServer::Stop() {
  channel_->Shutdown();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void LogServer::Run() {
  IpcMessage request;
  while (channel_->WaitForRequest(&request)) {
    IpcMessage reply;
    reply.op = request.op;
    reply.body = dispatcher_ != nullptr
                     ? dispatcher_->Dispatch(static_cast<LogOp>(request.op),
                                             request.body)
                     : EncodeErrorReplyBody(wrap_status_);
    channel_->Reply(std::move(reply));
  }
}

// ---------------------------------------------------------------------------
// LogClient

Result<Bytes> LogClient::Call(LogOp op, const Bytes& body) {
  IpcMessage request;
  request.op = static_cast<uint32_t>(op);
  request.body = body;
  CLIO_ASSIGN_OR_RETURN(IpcMessage reply, channel_->Call(request));
  return DecodeReplyBody(reply.body);
}

}  // namespace clio
