#include "util/fault.h"

#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdlib>

#include "util/rng.h"
#include "util/strings.h"

namespace kernelgpt::util {
namespace {

/// Symbolic errno names the plan grammar accepts and the injected Status
/// messages use. Covers what filesystem and network IO realistically
/// returns; anything else round-trips numerically.
struct ErrnoEntry {
  const char* name;
  int value;
};

constexpr ErrnoEntry kErrnoTable[] = {
    {"EIO", EIO},         {"ENOSPC", ENOSPC},   {"EACCES", EACCES},
    {"ENOENT", ENOENT},   {"EROFS", EROFS},     {"EMFILE", EMFILE},
    {"ENFILE", ENFILE},   {"EDQUOT", EDQUOT},   {"EFBIG", EFBIG},
    {"EINTR", EINTR},     {"EAGAIN", EAGAIN},   {"EBUSY", EBUSY},
    {"EPERM", EPERM},     {"ENOMEM", ENOMEM},   {"EBADF", EBADF},
    {"EISDIR", EISDIR},   {"ENOTDIR", ENOTDIR},
};

/// Parses a base-10 int in [min, INT_MAX].
bool
ParseInt(std::string_view value, int min, int* out)
{
  int64_t v = 0;
  if (!ParseI64(value, &v) || v < min || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool
ErrnoFromName(const std::string& name, int* out)
{
  for (const ErrnoEntry& e : kErrnoTable) {
    if (name == e.name) {
      *out = e.value;
      return true;
    }
  }
  return ParseInt(name, 0, out);
}

Status
BadValue(const std::string& key, const std::string& value, const char* want)
{
  return Status::Error(Format("fault plan: %s=%s is not %s", key.c_str(),
                              value.c_str(), want));
}

const char*
KindName(FaultKind kind)
{
  switch (kind) {
    case FaultKind::kThrow: return "throw";
    case FaultKind::kStatus: return "status";
    case FaultKind::kErrno: return "errno";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kExit: return "exit";
  }
  return "?";
}

bool
KindFromName(const std::string& name, FaultKind* out)
{
  for (FaultKind kind : {FaultKind::kThrow, FaultKind::kStatus,
                         FaultKind::kErrno, FaultKind::kCrash,
                         FaultKind::kExit}) {
    if (name == KindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

std::atomic<bool> FaultInjector::armed_flag_{false};

const char*
ErrnoName(int err)
{
  for (const ErrnoEntry& e : kErrnoTable) {
    if (err == e.value) return e.name;
  }
  return "";
}

std::string
FaultMessage(const char* site, const std::string& detail,
             const FaultRule& rule)
{
  std::string message = Format("injected %s fault at %s",
                               KindName(rule.kind), site);
  if (rule.kind == FaultKind::kErrno) {
    const int err = rule.error_number > 0 ? rule.error_number : EIO;
    const char* name = ErrnoName(err);
    message += Format(" (%s)", *name ? name : Format("errno %d", err).c_str());
  }
  if (!detail.empty()) message += " [" + detail + "]";
  if (!rule.message.empty()) message += ": " + rule.message;
  return message;
}

FaultInjector&
FaultInjector::Instance()
{
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void
FaultInjector::Arm(FaultPlan plan)
{
  std::lock_guard<std::mutex> lock(mutex_);
  seed_ = plan.seed;
  rules_.clear();
  rules_.reserve(plan.rules.size());
  for (FaultRule& rule : plan.rules) {
    RuleState state;
    state.rule = std::move(rule);
    rules_.push_back(std::move(state));
  }
  fired_by_site_.clear();
  total_fired_ = 0;
  armed_flag_.store(!rules_.empty(), std::memory_order_relaxed);
}

void
FaultInjector::Disarm()
{
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.clear();
  armed_flag_.store(false, std::memory_order_relaxed);
}

Status
FaultInjector::ParsePlan(const std::string& spec, FaultPlan* out)
{
  FaultPlan plan;
  for (const std::string& entry : Split(spec, ';')) {
    const std::string_view trimmed = Trim(entry);
    if (trimmed.empty()) continue;
    FaultRule rule;
    bool is_rule = false;
    for (const std::string& field : Split(std::string(trimmed), ',')) {
      const std::string_view f = Trim(field);
      if (f.empty()) continue;
      const size_t eq = f.find('=');
      if (eq == std::string_view::npos) {
        return Status::Error(Format(
            "fault plan: field '%s' is not key=value",
            std::string(f).c_str()));
      }
      const std::string key(Trim(f.substr(0, eq)));
      const std::string value(Trim(f.substr(eq + 1)));
      if (key == "seed") {
        if (!ParseU64(value, 0, &plan.seed)) {
          return BadValue(key, value, "an unsigned 64-bit integer");
        }
      } else if (key == "site") {
        rule.site = value;
        is_rule = true;
      } else if (key == "kind") {
        if (!KindFromName(value, &rule.kind)) {
          return Status::Error(Format(
              "fault plan: unknown kind '%s' (throw|status|errno|crash|exit)",
              value.c_str()));
        }
        is_rule = true;
      } else if (key == "errno") {
        if (!ErrnoFromName(value, &rule.error_number)) {
          return BadValue(key, value, "a known errno name or an int >= 0");
        }
        is_rule = true;
      } else if (key == "nth") {
        if (!ParseInt(value, 1, &rule.nth)) {
          return BadValue(key, value, "an int >= 1");
        }
        is_rule = true;
      } else if (key == "times") {
        if (!ParseInt(value, -1, &rule.times)) {
          return BadValue(key, value, "an int >= -1");
        }
        is_rule = true;
      } else if (key == "p") {
        // The negated range test also rejects NaN.
        if (!ParseF64(value, &rule.probability) ||
            !(rule.probability >= 0 && rule.probability <= 1)) {
          return BadValue(key, value, "a probability in [0, 1]");
        }
        is_rule = true;
      } else if (key == "match") {
        rule.match = value;
        is_rule = true;
      } else if (key == "msg") {
        rule.message = value;
        is_rule = true;
      } else {
        return Status::Error(
            Format("fault plan: unknown key '%s'", key.c_str()));
      }
    }
    if (!is_rule) continue;  // A bare "seed=N" segment.
    if (rule.site.empty()) {
      return Status::Error(Format(
          "fault plan: rule '%s' has no site=", std::string(trimmed).c_str()));
    }
    plan.rules.push_back(std::move(rule));
  }
  *out = std::move(plan);
  return Status::Ok();
}

Status
FaultInjector::ArmFromSpec(const std::string& spec)
{
  FaultPlan plan;
  Status status = ParsePlan(spec, &plan);
  if (!status.ok()) return status;
  Arm(std::move(plan));
  return Status::Ok();
}

bool
FaultInjector::ArmFromEnvIfPresent(Status* parse_error)
{
  if (Armed()) return true;
  const char* spec = std::getenv("KERNELGPT_FAULT_PLAN");
  if (!spec || *spec == '\0') return false;
  Status status = ArmFromSpec(spec);
  if (!status.ok() && parse_error) *parse_error = status;
  return status.ok();
}

bool
FaultInjector::Fire(const char* site, const std::string& detail,
                    FaultRule* fired)
{
  std::lock_guard<std::mutex> lock(mutex_);
  for (RuleState& state : rules_) {
    const FaultRule& rule = state.rule;
    if (rule.site != site) continue;
    if (!rule.match.empty() && detail.find(rule.match) == std::string::npos) {
      continue;
    }
    // Counters advance only on full (site, detail) matches, so a rule
    // scoped by detail counts a deterministic call stream even when
    // other threads hit the same site concurrently.
    const int match_index = state.matches++;
    bool fire;
    if (rule.probability >= 0) {
      // Seeded per-call draw, stable for (seed, site, detail, index).
      uint64_t h = HashCombine(seed_, StableHash(rule.site));
      h = HashCombine(h, StableHash(detail));
      h = HashCombine(h, static_cast<uint64_t>(match_index));
      fire = static_cast<double>(h >> 11) * 0x1.0p-53 < rule.probability;
    } else {
      fire = match_index + 1 >= rule.nth &&
             (rule.times < 0 || match_index + 1 < rule.nth + rule.times);
    }
    if (!fire) continue;
    ++state.fired;
    ++fired_by_site_[rule.site];
    ++total_fired_;
    *fired = rule;
    return true;
  }
  return false;
}

void
FaultInjector::Hit(const char* site, const std::string& detail)
{
  FaultRule rule;
  if (!Fire(site, detail, &rule)) return;
  switch (rule.kind) {
    case FaultKind::kCrash:
      throw InjectedCrash(FaultMessage(site, detail, rule));
    case FaultKind::kExit:
      ::_exit(42);
    case FaultKind::kThrow:
    case FaultKind::kStatus:
    case FaultKind::kErrno:
      throw InjectedFault(FaultMessage(site, detail, rule));
  }
}

Status
FaultInjector::HitStatus(const char* site, const std::string& detail,
                         int* fired_errno)
{
  FaultRule rule;
  if (!Fire(site, detail, &rule)) return Status::Ok();
  switch (rule.kind) {
    case FaultKind::kCrash:
      throw InjectedCrash(FaultMessage(site, detail, rule));
    case FaultKind::kExit:
      ::_exit(42);
    case FaultKind::kThrow:
      throw InjectedFault(FaultMessage(site, detail, rule));
    case FaultKind::kErrno:
      if (fired_errno) {
        *fired_errno = rule.error_number > 0 ? rule.error_number : EIO;
      }
      return Status::Error(FaultMessage(site, detail, rule));
    case FaultKind::kStatus:
      return Status::Error(FaultMessage(site, detail, rule));
  }
  return Status::Ok();
}

size_t
FaultInjector::FiredCount(const std::string& site) const
{
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fired_by_site_.find(site);
  return it == fired_by_site_.end() ? 0 : it->second;
}

size_t
FaultInjector::TotalFired() const
{
  std::lock_guard<std::mutex> lock(mutex_);
  return total_fired_;
}

}  // namespace kernelgpt::util
