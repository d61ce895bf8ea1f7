// dslint fixture: dstampede-lock-order negatives (run with
// --hierarchy docs/CONCURRENCY.md) — the documented direction,
// including a transitive (two-hop) path. Expected findings: 0.

namespace fixture {

struct Clf {
  ds::Mutex message_mu_{"clf.message_mu", ds::Mutex::kBlockingAllowed};
  ds::Mutex send_mu_{"clf.send_mu"};
  ds::Mutex fault_mu_{"fault_injector.mu"};
};

void Forward(Clf& clf) {
  ds::MutexLock message(clf.message_mu_);
  ds::MutexLock send(clf.send_mu_);
}

void Transitive(Clf& clf) {
  // message_mu -> fault_injector.mu has no direct edge, but the
  // documented path message_mu -> send_mu -> fault_injector.mu makes
  // the nesting legal.
  ds::MutexLock message(clf.message_mu_);
  ds::MutexLock fault(clf.fault_mu_);
}

}  // namespace fixture
