#include "qos/governor.h"

#include <cstring>

#include "util/logging.h"

namespace vcd::qos {

const char* QosStateName(QosState s) {
  switch (s) {
    case QosState::kNormal:
      return "normal";
    case QosState::kRecovering:
      return "recovering";
    case QosState::kDegraded:
      return "degraded";
    case QosState::kShedding:
      return "shedding";
  }
  return "unknown";
}

const char* PriorityName(Priority p) {
  switch (p) {
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      return "normal";
    case Priority::kLow:
      return "low";
  }
  return "unknown";
}

bool ParsePriority(const char* name, Priority* out) {
  if (std::strcmp(name, "high") == 0) {
    *out = Priority::kHigh;
  } else if (std::strcmp(name, "normal") == 0) {
    *out = Priority::kNormal;
  } else if (std::strcmp(name, "low") == 0) {
    *out = Priority::kLow;
  } else {
    return false;
  }
  return true;
}

Status QosConfig::Validate() const {
  if (tick_ms < 0) return Status::InvalidArgument("qos tick_ms must be >= 0");
  if (!(recover_watermark >= 0.0 && recover_watermark <= 1.0)) {
    return Status::InvalidArgument("qos recover_watermark must be in [0, 1]");
  }
  if (!(degrade_watermark > 0.0 && degrade_watermark <= 1.0)) {
    return Status::InvalidArgument("qos degrade_watermark must be in (0, 1]");
  }
  if (!(shed_watermark > 0.0 && shed_watermark <= 1.0)) {
    return Status::InvalidArgument("qos shed_watermark must be in (0, 1]");
  }
  if (recover_watermark >= degrade_watermark) {
    return Status::InvalidArgument(
        "qos recover_watermark must be < degrade_watermark (hysteresis gap)");
  }
  if (degrade_watermark > shed_watermark) {
    return Status::InvalidArgument(
        "qos degrade_watermark must be <= shed_watermark");
  }
  if (degrade_lag_us < 0) {
    return Status::InvalidArgument("qos degrade_lag_us must be >= 0");
  }
  if (escalate_dwell_ticks < 1) {
    return Status::InvalidArgument("qos escalate_dwell_ticks must be >= 1");
  }
  if (recover_dwell_ticks < 1) {
    return Status::InvalidArgument("qos recover_dwell_ticks must be >= 1");
  }
  if (degrade.probe_every_n < 1) {
    return Status::InvalidArgument("qos degrade probe_every_n must be >= 1");
  }
  return Status::OK();
}

Governor::Governor(const QosConfig& config, int num_shards)
    : config_(config) {
  VCD_CHECK(num_shards >= 0, "negative shard count");
  shards_.resize(static_cast<size_t>(num_shards));
}

bool Governor::TickShard(Machine* m, const ShardSample& s,
                         Transition* t) const {
  const double fill =
      s.queue_capacity == 0
          ? 0.0
          : static_cast<double>(s.queue_depth) /
                static_cast<double>(s.queue_capacity);
  const bool degrade_hot =
      fill >= config_.degrade_watermark ||
      (config_.degrade_lag_us > 0 && s.stream_lag_us >= config_.degrade_lag_us);
  const bool shed_hot = fill >= config_.shed_watermark;
  const bool calm = fill <= config_.recover_watermark && !degrade_hot;

  ++m->dwell;
  QosState next = m->state;
  switch (m->state) {
    case QosState::kNormal:
      // Hot streaks escalate; anything else resets the streak — a single
      // cool tick restarts the dwell clock, which is the anti-flap rule.
      m->escalate_streak = degrade_hot ? m->escalate_streak + 1 : 0;
      m->recover_streak = 0;
      if (m->escalate_streak >= config_.escalate_dwell_ticks) {
        next = QosState::kDegraded;
      }
      break;
    case QosState::kRecovering:
      m->escalate_streak = degrade_hot ? m->escalate_streak + 1 : 0;
      m->recover_streak = calm ? m->recover_streak + 1 : 0;
      if (m->escalate_streak >= config_.escalate_dwell_ticks) {
        next = QosState::kDegraded;  // relapse under returning load
      } else if (m->recover_streak >= config_.recover_dwell_ticks) {
        next = QosState::kNormal;
      }
      break;
    case QosState::kDegraded:
      m->escalate_streak = shed_hot ? m->escalate_streak + 1 : 0;
      m->recover_streak = calm ? m->recover_streak + 1 : 0;
      if (m->escalate_streak >= config_.escalate_dwell_ticks) {
        next = QosState::kShedding;
      } else if (m->recover_streak >= config_.recover_dwell_ticks) {
        next = QosState::kRecovering;
      }
      break;
    case QosState::kShedding:
      // De-escalation from Shedding only needs the shed condition gone (not
      // full calm): drop back to Degraded and let its own hysteresis decide
      // whether pressure is truly over.
      m->recover_streak = shed_hot ? 0 : m->recover_streak + 1;
      m->escalate_streak = 0;
      if (m->recover_streak >= config_.recover_dwell_ticks) {
        next = QosState::kDegraded;
      }
      break;
  }

  if (next == m->state) return false;
  t->from = m->state;
  t->to = next;
  t->dwell_ticks = m->dwell;
  m->state = next;
  m->dwell = 0;
  m->escalate_streak = 0;
  m->recover_streak = 0;
  return true;
}

int Governor::Tick(const std::vector<ShardSample>& samples,
                   std::vector<Transition>* transitions) {
  int fired = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardSample sample = i < samples.size() ? samples[i] : ShardSample{};
    Transition t;
    t.shard = static_cast<int>(i);
    if (TickShard(&shards_[i], sample, &t)) {
      ++fired;
      if (transitions != nullptr) transitions->push_back(t);
    }
  }
  return fired;
}

QosState Governor::shard_state(int shard) const {
  VCD_CHECK(shard >= 0 && shard < num_shards(), "shard out of range");
  return shards_[static_cast<size_t>(shard)].state;
}

int64_t Governor::shard_dwell_ticks(int shard) const {
  VCD_CHECK(shard >= 0 && shard < num_shards(), "shard out of range");
  return shards_[static_cast<size_t>(shard)].dwell;
}

QosState Governor::global_state() const {
  QosState g = QosState::kNormal;
  for (const Machine& m : shards_) {
    if (static_cast<int>(m.state) > static_cast<int>(g)) g = m.state;
  }
  return g;
}

std::vector<GovernorShardCkpt> Governor::ExportCkpt() const {
  std::vector<GovernorShardCkpt> out;
  out.reserve(shards_.size());
  for (const Machine& m : shards_) {
    GovernorShardCkpt c;
    c.state = static_cast<int32_t>(m.state);
    c.dwell_ticks = m.dwell;
    c.escalate_streak = m.escalate_streak;
    c.recover_streak = m.recover_streak;
    out.push_back(c);
  }
  return out;
}

void Governor::RestoreCkpt(const std::vector<GovernorShardCkpt>& ckpt) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (i >= ckpt.size()) {
      shards_[i] = Machine{};
      continue;
    }
    const GovernorShardCkpt& c = ckpt[i];
    Machine m;
    m.state = (c.state >= 0 && c.state <= 3) ? static_cast<QosState>(c.state)
                                             : QosState::kNormal;
    m.dwell = c.dwell_ticks < 0 ? 0 : c.dwell_ticks;
    m.escalate_streak = c.escalate_streak < 0 ? 0 : c.escalate_streak;
    m.recover_streak = c.recover_streak < 0 ? 0 : c.recover_streak;
    shards_[i] = m;
  }
}

}  // namespace vcd::qos
