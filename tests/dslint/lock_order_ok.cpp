// dslint fixture: dstampede-lock-order negatives (run with
// --hierarchy tests/dslint/lock_hierarchy.md) — the documented
// direction, including a transitive (two-hop) path. Expected
// findings: 0.

namespace fixture {

struct Nest {
  ds::Mutex outer_mu_{"fixture.outer_mu"};
  ds::Mutex middle_mu_{"fixture.middle_mu"};
  ds::Mutex inner_mu_{"fixture.inner_mu"};
};

void Forward(Nest& nest) {
  ds::MutexLock outer(nest.outer_mu_);
  ds::MutexLock middle(nest.middle_mu_);
}

void Transitive(Nest& nest) {
  // outer_mu -> inner_mu has no direct edge, but the documented path
  // outer_mu -> middle_mu -> inner_mu makes the nesting legal.
  ds::MutexLock outer(nest.outer_mu_);
  ds::MutexLock inner(nest.inner_mu_);
}

}  // namespace fixture
