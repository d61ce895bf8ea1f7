// dslint fixture: dstampede-lock-order positives (run with
// --hierarchy docs/CONCURRENCY.md) — an inversion of a documented
// edge, an undocumented edge, and same-class nesting. Expected
// findings: 3.

namespace fixture {

struct Clf {
  ds::Mutex send_mu_{"clf.send_mu"};
  ds::Mutex message_mu_{"clf.message_mu", ds::Mutex::kBlockingAllowed};
};

void Inverted(Clf& clf) {
  ds::MutexLock send(clf.send_mu_);
  ds::MutexLock message(clf.message_mu_);
}

struct Pair {
  ds::Mutex a_mu_{"fixture.a_mu"};
  ds::Mutex b_mu_{"fixture.b_mu"};
};

void Undocumented(Pair& pair) {
  ds::MutexLock a(pair.a_mu_);
  ds::MutexLock b(pair.b_mu_);
}

struct Shards {
  ds::Mutex left_mu_{"fixture.shard_mu"};
  ds::Mutex right_mu_{"fixture.shard_mu"};
};

void SameClass(Shards& shards) {
  ds::MutexLock left(shards.left_mu_);
  ds::MutexLock right(shards.right_mu_);
}

}  // namespace fixture
