#include "dstampede/client/listener.hpp"

#include "dstampede/client/protocol.hpp"
#include "dstampede/common/logging.hpp"
#include "dstampede/common/metrics.hpp"

namespace dstampede::client {

namespace {
constexpr std::size_t kNoLiveAs = static_cast<std::size_t>(-1);
// How long a Resume waits for the session's old surrogate to finish
// parking before giving up on in-place adoption.
const Duration kResumeParkWait = Millis(2000);

void ReplyStatusAndClose(transport::TcpConnection& conn,
                         std::uint64_t request_id, const Status& status) {
  (void)conn.SendFrame(core::EncodeStatusReply(request_id, status));
  conn.Close();
}
}  // namespace

Result<std::unique_ptr<Listener>> Listener::Start(core::Runtime& runtime,
                                                  const Options& options) {
  auto listener = std::unique_ptr<Listener>(new Listener(runtime));
  listener->options_ = options;
  DS_ASSIGN_OR_RETURN(listener->listener_,
                      transport::TcpListener::Bind(options.port));
  const std::uint16_t bound_port = listener->listener_.bound_addr().port;
  // Session ids carry the bound port in their upper bits so sessions
  // stay unique across every listener of the application (a session
  // migrating between listeners keeps its id).
  {
    ds::MutexLock lock(listener->mu_);
    listener->next_session_ =
        (static_cast<std::uint64_t>(bound_port) << 32) | 1u;
  }
  // Advertise this listener in the name server so reconnecting clients
  // can discover failover targets. The full advertised address travels
  // in the meta field (id_bits carries the port alone and would force
  // clients to assume loopback). Ownership is preset to the name
  // server's own AS so the advertisement survives other spaces dying.
  listener->ns_name_ = "sys/listener/" + std::to_string(bound_port);
  {
    core::NsEntry entry;
    entry.name = listener->ns_name_;
    entry.kind = core::NsEntry::Kind::kOther;
    entry.id_bits = bound_port;
    entry.meta = listener->listener_.bound_addr().ToString();
    entry.owner_as = runtime.as(0).name_server_as();
    Status s = runtime.as(0).NsRegister(entry);
    if (!s.ok()) {
      DS_LOG(kWarn) << "listener advertisement failed: " << s;
      listener->ns_name_.clear();
    }
  }
  // Session health is visible through the AS-0 sys/metrics snapshot
  // alongside the space's own instruments.
  {
    metrics::Registry& reg = runtime.as(0).metrics_registry();
    Listener* raw = listener.get();
    listener->provider_tokens_ = {
        reg.AddProvider("listener.sessions_total",
                        [raw] {
                          return static_cast<std::int64_t>(
                              raw->surrogates_total());
                        }),
        reg.AddProvider("listener.sessions_parked",
                        [raw] {
                          return static_cast<std::int64_t>(
                              raw->surrogates_in(Surrogate::State::kParked));
                        }),
        reg.AddProvider("listener.sessions_resumed",
                        [raw] {
                          return static_cast<std::int64_t>(
                              raw->sessions_resumed());
                        }),
        reg.AddProvider("listener.sessions_migrated",
                        [raw] {
                          return static_cast<std::int64_t>(
                              raw->sessions_migrated());
                        }),
        reg.AddProvider("listener.run_threads",
                        [raw] {
                          return static_cast<std::int64_t>(raw->run_threads());
                        }),
    };
  }
  listener->accept_thread_ =
      Thread("listener", [raw = listener.get()] { raw->AcceptLoop(); });
  // The janitor always runs: it joins exited surrogate Run threads.
  // Reaping of long-parked surrogates stays opt-in via the option.
  listener->janitor_thread_ =
      Thread("listener.janitor", [raw = listener.get()] { raw->JanitorLoop(); });
  return listener;
}

Listener::~Listener() { Shutdown(); }

void Listener::AcceptLoop() {
  while (!stopping_.load()) {
    auto conn = listener_.Accept(Deadline::AfterMillis(100));
    if (!conn.ok()) {
      if (conn.status().code() == StatusCode::kTimeout) continue;
      break;  // Shutdown stopped the listening socket
    }
    Handshake(std::move(conn).value());
  }
}

std::size_t Listener::PickLiveAs(std::int32_t preferred) {
  if (preferred >= 0 &&
      static_cast<std::size_t>(preferred) < runtime_.size() &&
      !runtime_.as(static_cast<std::size_t>(preferred)).stopped()) {
    return static_cast<std::size_t>(preferred);
  }
  for (std::size_t tried = 0; tried < runtime_.size(); ++tried) {
    const std::size_t i = next_as_++ % runtime_.size();
    if (!runtime_.as(i).stopped()) return i;
  }
  return kNoLiveAs;
}

void Listener::Handshake(transport::TcpConnection conn) {
  // Read the first frame to learn whether this is a fresh join (Hello)
  // or a session resumption (Resume); either way the surrogate must be
  // bound before it can answer anything else. A client gets 5 s to send
  // it, read in 100 ms slices so Shutdown need not wait out one that
  // has sent nothing; RecvFrame resumes a frame a slice cut short.
  Buffer frame;
  Status got = TimeoutError("no first frame");
  for (int slice = 0; slice < 50 && got.code() == StatusCode::kTimeout &&
                      !stopping_.load();
       ++slice) {
    got = conn.RecvFrame(frame, Deadline::AfterMillis(100));
  }
  if (!got.ok()) return;

  marshal::XdrDecoder dec(frame);
  auto hdr = core::DecodeRequestHeader(dec);
  if (!hdr.ok()) return;

  if (static_cast<ClientOp>(hdr->op) == ClientOp::kResume) {
    auto resume = core::Decode<ResumeReq>(dec);
    if (!resume.ok()) return;
    HandleResume(std::move(conn), hdr->request_id, *resume);
    return;
  }

  if (static_cast<ClientOp>(hdr->op) != ClientOp::kHello) {
    DS_LOG(kWarn) << "join without hello; dropping device";
    return;
  }
  auto hello = core::Decode<HelloReq>(dec);
  if (!hello.ok()) return;

  std::unique_ptr<Surrogate> surrogate;
  Surrogate* raw = nullptr;
  {
    ds::MutexLock lock(mu_);
    const std::size_t as_index = PickLiveAs(hello->preferred_as);
    if (as_index == kNoLiveAs) {
      ReplyStatusAndClose(conn, hdr->request_id,
                          UnavailableError("no live address space"));
      return;
    }
    surrogate = std::make_unique<Surrogate>(
        next_session_++, runtime_.as(as_index), std::move(conn),
        options_.edge_faults);
    raw = surrogate.get();
    surrogates_.push_back(std::move(surrogate));
  }
  if (!raw->ServiceHello(hdr->request_id, *hello).ok()) {
    raw->Stop();
    return;
  }
  SpawnRun(raw);
}

void Listener::HandleResume(transport::TcpConnection conn,
                            std::uint64_t request_id,
                            const ResumeReq& resume) {
  // Fast path: the session's surrogate is here and its host is alive —
  // adopt the fresh connection in place (slots unchanged). Superseded
  // and departed surrogates (kReaped/kLeft) are tombstones that stay in
  // surrogates_ for the stats; matching one of them instead of the live
  // incarnation would re-migrate the session and supersede (then reap)
  // its actually-live surrogate, losing the registry record and the
  // cached-reply dedup.
  Surrogate* existing = nullptr;
  {
    ds::MutexLock lock(mu_);
    for (auto& s : surrogates_) {
      if (s->session_id() != resume.session_id) continue;
      const Surrogate::State state = s->state();
      if (state == Surrogate::State::kReaped ||
          state == Surrogate::State::kLeft) {
        continue;
      }
      existing = s.get();
      break;
    }
  }
  if (existing && !existing->host_stopped()) {
    // The old Run thread may not have noticed the drop yet; nudge it
    // and wait for it to park.
    if (existing->state() == Surrogate::State::kActive) existing->Stop();
    const Deadline park_wait = Deadline::After(kResumeParkWait);
    while (existing->state() == Surrogate::State::kActive &&
           !park_wait.expired() && !stopping_.load()) {
      dstampede::SleepFor(Millis(2));
    }
    if (existing->state() == Surrogate::State::kParked &&
        existing->Adopt(std::move(conn)).ok()) {
      if (!existing->ServiceResume(request_id).ok()) {
        existing->Stop();
        return;
      }
      sessions_resumed_.fetch_add(1, std::memory_order_relaxed);
      SpawnRun(existing);
      return;
    }
    if (existing->state() == Surrogate::State::kLeft ||
        existing->state() == Surrogate::State::kReaped) {
      ReplyStatusAndClose(conn, request_id, NotFoundError("session ended"));
      return;
    }
    // Could not adopt (still active / raced); drop the connection and
    // let the client's backoff retry.
    return;
  }

  // Failover path: the original host died (or the session came from
  // another listener). Rehydrate from the session registry onto a live
  // address space.
  std::unique_ptr<Surrogate> surrogate;
  Surrogate* raw = nullptr;
  std::size_t as_index;
  {
    ds::MutexLock lock(mu_);
    as_index = PickLiveAs(resume.preferred_as);
  }
  if (as_index == kNoLiveAs) {
    ReplyStatusAndClose(conn, request_id,
                        UnavailableError("no live address space"));
    return;
  }
  core::AddressSpace& live_as = runtime_.as(as_index);
  auto record = live_as.SessionGet(resume.session_id);
  if (!record.ok()) {
    // kNotFound tells the client the session is unrecoverable; any
    // other failure (e.g. the name server is unreachable right now)
    // closes the link so the client's backoff retries.
    if (record.status().code() == StatusCode::kNotFound) {
      ReplyStatusAndClose(conn, request_id, record.status());
    }
    return;
  }
  // `existing` (if any) is the live predecessor this migration replaces
  // — never a tombstone, thanks to the scan above.
  if (existing) existing->MarkSuperseded();

  surrogate = std::make_unique<Surrogate>(
      resume.session_id, live_as, std::move(conn), options_.edge_faults);
  raw = surrogate.get();
  if (!raw->Rehydrate(*record).ok() || !raw->ServiceResume(request_id).ok()) {
    raw->Stop();
    return;  // surrogate is dropped; registry record remains for retry
  }
  sessions_migrated_.fetch_add(1, std::memory_order_relaxed);
  {
    ds::MutexLock lock(mu_);
    surrogates_.push_back(std::move(surrogate));
  }
  SpawnRun(raw);
}

void Listener::SpawnRun(Surrogate* surrogate) {
  auto done = std::make_shared<std::atomic<bool>>(false);
  Thread thread([surrogate, done] {
    surrogate->Run();
    done->store(true);
  });
  ds::MutexLock lock(mu_);
  threads_.push_back(RunThread{std::move(thread), std::move(done)});
}

std::size_t Listener::ReapFinishedThreads() {
  std::vector<Thread> finished;
  {
    ds::MutexLock lock(mu_);
    for (auto it = threads_.begin(); it != threads_.end();) {
      if (it->done->load()) {
        finished.push_back(std::move(it->thread));
        it = threads_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // The done flag is set as Run() returns, so these joins are at most a
  // thread-exit away from immediate.
  for (auto& t : finished) t.join();
  return finished.size();
}

std::size_t Listener::run_threads() const {
  ds::MutexLock lock(mu_);
  return threads_.size();
}

std::size_t Listener::surrogates_total() const {
  ds::MutexLock lock(mu_);
  return surrogates_.size();
}

std::size_t Listener::surrogates_in(Surrogate::State state) const {
  ds::MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& surrogate : surrogates_) {
    if (surrogate->state() == state) ++n;
  }
  return n;
}

std::size_t Listener::ReapParked() {
  std::vector<Surrogate*> parked;
  {
    ds::MutexLock lock(mu_);
    for (auto& surrogate : surrogates_) {
      if (surrogate->state() == Surrogate::State::kParked) {
        parked.push_back(surrogate.get());
      }
    }
  }
  std::size_t reaped = 0;
  for (Surrogate* surrogate : parked) {
    if (surrogate->Reap().ok()) ++reaped;
  }
  return reaped;
}

void Listener::JanitorLoop() {
  while (!stopping_.load()) {
    {
      // Interruptible pacing: Shutdown() notifies so the janitor exits
      // promptly even when this deadline sits on a frozen VirtualClock.
      ds::MutexLock lock(janitor_mu_);
      if (stopping_.load()) break;
      (void)janitor_cv_.WaitUntil(janitor_mu_, Deadline::AfterMillis(10));
    }
    if (stopping_.load()) break;
    ReapFinishedThreads();
    if (options_.reap_parked_after <= Duration::zero()) continue;
    std::vector<Surrogate*> expired;
    {
      ds::MutexLock lock(mu_);
      const TimePoint cutoff = Now() - options_.reap_parked_after;
      for (auto& surrogate : surrogates_) {
        if (surrogate->state() == Surrogate::State::kParked &&
            surrogate->parked_since() <= cutoff) {
          expired.push_back(surrogate.get());
        }
      }
    }
    for (Surrogate* surrogate : expired) {
      (void)surrogate->Reap();
    }
  }
}

void Listener::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  {
    ds::MutexLock lock(janitor_mu_);
    janitor_cv_.NotifyAll();
  }
  for (std::uint64_t token : provider_tokens_) {
    runtime_.as(0).metrics_registry().RemoveProvider(token);
  }
  provider_tokens_.clear();
  if (!ns_name_.empty() && !runtime_.as(0).stopped()) {
    (void)runtime_.as(0).NsUnregister(ns_name_);
  }
  // Wake the accept loop out of its poll; close the socket only once
  // nothing waits on it.
  listener_.ShutdownRead();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  if (janitor_thread_.joinable()) janitor_thread_.join();
  std::vector<RunThread> to_join;
  {
    ds::MutexLock lock(mu_);
    for (auto& surrogate : surrogates_) surrogate->Stop();
    to_join.swap(threads_);
  }
  for (auto& t : to_join) {
    if (t.thread.joinable()) t.thread.join();
  }
}

}  // namespace dstampede::client
