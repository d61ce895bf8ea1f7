// Test-side receiver for clf::Endpoint. The endpoint pushes each
// message through its delivery upcall; MessageSink queues them, and
// Next() pops the oldest, waiting until a deadline. The wait goes
// through ds::CondVar::WaitUntil, so a virtual-clock Deadline is
// honoured under the simulation harness.
#pragma once

#include <deque>
#include <memory>
#include <utility>

#include "dstampede/clf/endpoint.hpp"
#include "dstampede/common/metrics.hpp"
#include "dstampede/common/sync.hpp"

namespace dstampede::clf {

class MessageSink {
 public:
  // The delivery upcall for Endpoint::Create. The sink must outlive
  // the endpoint.
  DeliverFn Deliver() {
    return [this](const transport::SockAddr& from, SharedBuffer message) {
      {
        ds::MutexLock lock(mu_);
        messages_.emplace_back(from, std::move(message));
      }
      cv_.NotifyAll();
    };
  }

  // The delivered message itself; kTimeout if nothing is delivered by
  // `deadline`.
  Status Next(SharedBuffer& out, transport::SockAddr& from,
              Deadline deadline) {
    ds::MutexLock lock(mu_);
    while (messages_.empty()) {
      if (!cv_.WaitUntil(mu_, deadline) && messages_.empty()) {
        return TimeoutError("no message delivered");
      }
    }
    from = messages_.front().first;
    out = std::move(messages_.front().second);
    messages_.pop_front();
    return OkStatus();
  }
  // A copy of its bytes, for callers that compare or resend them.
  Status Next(Buffer& out, transport::SockAddr& from, Deadline deadline) {
    SharedBuffer message;
    DS_RETURN_IF_ERROR(Next(message, from, deadline));
    out = message.ToVector();
    return OkStatus();
  }

 private:
  ds::Mutex mu_{"test.sink_mu"};
  ds::CondVar cv_;
  std::deque<std::pair<transport::SockAddr, SharedBuffer>> messages_
      DS_GUARDED_BY(mu_);
};

// An endpoint that delivers into its own sink and counts into its own
// registry. Members are destroyed in reverse order, so the endpoint
// shuts down before the sink and the registry go.
struct SinkEndpoint {
  std::unique_ptr<metrics::Registry> registry =
      std::make_unique<metrics::Registry>();
  std::unique_ptr<MessageSink> sink = std::make_unique<MessageSink>();
  std::unique_ptr<Endpoint> endpoint;

  Endpoint* operator->() const { return endpoint.get(); }
  template <typename Out>  // SharedBuffer or Buffer, as MessageSink::Next
  Status Next(Out& out, transport::SockAddr& from, Deadline deadline) {
    return sink->Next(out, from, deadline);
  }
};

inline Result<SinkEndpoint> CreateSinkEndpoint(
    const Endpoint::Options& options,
    Endpoint::PeerEventCallback on_peer_down = nullptr,
    Endpoint::PeerEventCallback on_peer_up = nullptr) {
  SinkEndpoint ep;
  DS_ASSIGN_OR_RETURN(
      ep.endpoint,
      Endpoint::Create(options, *ep.registry, ep.sink->Deliver(),
                       std::move(on_peer_down), std::move(on_peer_up)));
  return ep;
}

}  // namespace dstampede::clf
