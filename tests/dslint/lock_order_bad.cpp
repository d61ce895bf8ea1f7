// dslint fixture: dstampede-lock-order positives (run with
// --hierarchy tests/dslint/lock_hierarchy.md) — an inversion of a
// documented edge, an undocumented edge, and same-class nesting.
// Expected findings: 3.

namespace fixture {

struct Nest {
  ds::Mutex middle_mu_{"fixture.middle_mu"};
  ds::Mutex outer_mu_{"fixture.outer_mu"};
};

void Inverted(Nest& nest) {
  ds::MutexLock middle(nest.middle_mu_);
  ds::MutexLock outer(nest.outer_mu_);
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
