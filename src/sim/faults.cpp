#include "sim/faults.h"

#include "common/error.h"

namespace mcs::sim {

namespace {

// Distinct odd multipliers per fault kind keep the hash cells of different
// queries statistically independent even for equal (a, b) arguments.
constexpr std::uint64_t kDropKind = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kWithdrawKind = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kAbandonKind = 0x94d049bb133111ebULL;
constexpr std::uint64_t kAbandonLegKind = 0xd6e8feb86659fd93ULL;
constexpr std::uint64_t kLossKind = 0xa0761d6478bd642fULL;
constexpr std::uint64_t kCorruptKind = 0xe7037ed1a0b428dbULL;

void check_prob(double p, const char* what) {
  MCS_CHECK(p >= 0.0 && p <= 1.0, std::string(what) + " must be in [0, 1]");
}

}  // namespace

bool FaultPlan::any() const {
  return dropout_prob > 0.0 || abandon_prob > 0.0 || upload_loss_prob > 0.0 ||
         corruption_prob > 0.0 || withdraw_prob > 0.0;
}

void FaultPlan::validate() const {
  check_prob(dropout_prob, "dropout_prob");
  check_prob(abandon_prob, "abandon_prob");
  check_prob(upload_loss_prob, "upload_loss_prob");
  check_prob(corruption_prob, "corruption_prob");
  check_prob(withdraw_prob, "withdraw_prob");
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t campaign_seed)
    : plan_(plan) {
  plan_.validate();
  // Expand the two seeds into one well-mixed stream id so that nearby
  // campaign seeds (the runner hands out seed, seed^const, ...) do not
  // produce correlated fault cells.
  SplitMix64 sm(plan.seed ^ (campaign_seed * 0x2545f4914f6cdd1dULL));
  seed_ = sm.next();
}

double FaultInjector::unit_draw(std::uint64_t kind, std::uint64_t a,
                                std::uint64_t b) const {
  SplitMix64 sm(seed_ ^ (kind * (a + 1)) ^ (kind + 0x6a09e667f3bcc909ULL) * b);
  sm.next();  // decorrelate from the raw cell index
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

bool FaultInjector::drop_user(UserId user, Round k) const {
  return unit_draw(kDropKind, static_cast<std::uint64_t>(user),
                   static_cast<std::uint64_t>(k)) < plan_.dropout_prob;
}

bool FaultInjector::withdraw_task(TaskId task, Round k) const {
  return unit_draw(kWithdrawKind, static_cast<std::uint64_t>(task),
                   static_cast<std::uint64_t>(k)) < plan_.withdraw_prob;
}

int FaultInjector::legs_completed(UserId user, Round k, int planned) const {
  MCS_CHECK(planned >= 0, "planned leg count must be non-negative");
  if (planned == 0) return 0;
  const std::uint64_t u = static_cast<std::uint64_t>(user);
  const std::uint64_t r = static_cast<std::uint64_t>(k);
  if (unit_draw(kAbandonKind, u, r) >= plan_.abandon_prob) return planned;
  // Abandoned: walk a uniform prefix of [0, planned - 1] legs.
  const double frac = unit_draw(kAbandonLegKind, u, r);
  return static_cast<int>(frac * planned);  // frac < 1 => result < planned
}

bool FaultInjector::lose_upload(UserId user, TaskId task, Round k) const {
  const std::uint64_t cell =
      static_cast<std::uint64_t>(user) * 0x100000001b3ULL +
      static_cast<std::uint64_t>(task);
  return unit_draw(kLossKind, cell, static_cast<std::uint64_t>(k)) <
         plan_.upload_loss_prob;
}

bool FaultInjector::corrupt_upload(UserId user, TaskId task, Round k) const {
  const std::uint64_t cell =
      static_cast<std::uint64_t>(user) * 0x100000001b3ULL +
      static_cast<std::uint64_t>(task);
  return unit_draw(kCorruptKind, cell, static_cast<std::uint64_t>(k)) <
         plan_.corruption_prob;
}

}  // namespace mcs::sim
