#include "obs/trace.h"

#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/jsonfmt.h"

namespace adapt::obs {

namespace {

using common::json_number;

// Matches cluster::kOriginEndpoint without pulling in the cluster
// library; the origin is serialized as src = -1.
constexpr std::uint32_t kOrigin = std::numeric_limits<std::uint32_t>::max();

void append_src(std::string& out, std::uint32_t peer) {
  out += "\"src\": ";
  out += peer == kOrigin ? "-1" : std::to_string(peer);
}

}  // namespace

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kPlacement:
      return "placement";
    case EventType::kJobStart:
      return "job_start";
    case EventType::kNodeDown:
      return "node_down";
    case EventType::kNodeUp:
      return "node_up";
    case EventType::kAttemptStart:
      return "attempt_start";
    case EventType::kAttemptFinish:
      return "attempt_finish";
    case EventType::kAttemptKill:
      return "attempt_kill";
    case EventType::kTransferRequest:
      return "transfer_request";
    case EventType::kTransferStall:
      return "transfer_stall";
    case EventType::kTransferResume:
      return "transfer_resume";
    case EventType::kTransferAbort:
      return "transfer_abort";
    case EventType::kTaskPark:
      return "task_park";
    case EventType::kTaskRevive:
      return "task_revive";
    case EventType::kJobEnd:
      return "job_end";
    case EventType::kNodeDead:
      return "node_dead";
    case EventType::kReplicaLost:
      return "replica_lost";
    case EventType::kRereplicationStart:
      return "rereplication_start";
    case EventType::kRereplicationDone:
      return "rereplication_done";
    case EventType::kRereplicationRetry:
      return "rereplication_retry";
    case EventType::kRereplicationGiveup:
      return "rereplication_giveup";
    case EventType::kPredictorDrift:
      return "predictor_drift";
    case EventType::kRebalanceTrigger:
      return "rebalance_trigger";
    case EventType::kMigrationStart:
      return "migration_start";
    case EventType::kMigrationCommit:
      return "migration_commit";
    case EventType::kMigrationRetry:
      return "migration_retry";
    case EventType::kMigrationGiveup:
      return "migration_giveup";
    case EventType::kPartitionStart:
      return "partition_start";
    case EventType::kPartitionHeal:
      return "partition_heal";
    case EventType::kStragglerStart:
      return "straggler_start";
    case EventType::kStragglerEnd:
      return "straggler_end";
    case EventType::kReplicaCorrupt:
      return "replica_corrupt";
    case EventType::kCorruptRead:
      return "corrupt_read";
    case EventType::kSafeModeEnter:
      return "safe_mode_enter";
    case EventType::kSafeModeExit:
      return "safe_mode_exit";
    case EventType::kNodeRevived:
      return "node_revived";
    case EventType::kRedundantWaste:
      return "redundant_waste";
    case EventType::kReplicaWriteoff:
      return "replica_writeoff";
    case EventType::kReplicaRestore:
      return "replica_restore";
    case EventType::kReplicaTrim:
      return "replica_trim";
  }
  return "?";
}

const char* to_string(TraceReason reason) {
  switch (reason) {
    case TraceReason::kNone:
      return "none";
    case TraceReason::kNodeDown:
      return "node_down";
    case TraceReason::kSourceTimeout:
      return "source_timeout";
    case TraceReason::kRedundant:
      return "redundant";
    case TraceReason::kChecksum:
      return "checksum";
  }
  return "?";
}

EventTracer::EventTracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void EventTracer::record(const TraceRecord& r) {
  if (sink_ != nullptr) sink_->observe(r);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(r);
    return;
  }
  ring_[head_] = r;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceRecord> EventTracer::take_records() {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  // head_ is the oldest record once the ring wrapped; 0 otherwise.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  ring_.clear();
  head_ = 0;
  return out;
}

void append_jsonl(std::string& out, std::uint64_t run_index,
                  const TraceRecord& r) {
  out += "{\"run\": " + std::to_string(run_index) +
         ", \"t\": " + json_number(r.t) + ", \"ev\": \"" +
         to_string(r.type) + "\"";
  switch (r.type) {
    case EventType::kPlacement:
      out += ", \"block\": " + std::to_string(r.task) +
             ", \"replica\": " + std::to_string(r.aux) +
             ", \"node\": " + std::to_string(r.node);
      // Placement-time quote (expected task time on this node) when the
      // caller supplied one; omitted otherwise so pre-quote traces stay
      // byte-identical.
      if (r.v0 > 0.0) out += ", \"quote\": " + json_number(r.v0);
      break;
    case EventType::kJobStart:
      out += ", \"nodes\": " + std::to_string(r.node) +
             ", \"tasks\": " + std::to_string(r.task);
      break;
    case EventType::kNodeDown:
      out += ", \"node\": " + std::to_string(r.node) +
             ", \"slots\": " + std::to_string(r.aux);
      break;
    case EventType::kNodeUp:
      out += ", \"node\": " + std::to_string(r.node);
      break;
    case EventType::kAttemptStart:
      out += ", \"task\": " + std::to_string(r.task) +
             ", \"node\": " + std::to_string(r.node) + ", ";
      append_src(out, r.peer);
      out += ", \"spec\": " + std::to_string(r.aux) +
             ", \"ticket\": " + std::to_string(r.ticket);
      break;
    case EventType::kAttemptFinish:
      out += ", \"task\": " + std::to_string(r.task) +
             ", \"node\": " + std::to_string(r.node) + ", \"kind\": \"" +
             (r.aux == 0 ? "local" : r.aux == 1 ? "remote" : "origin") +
             "\"";
      break;
    case EventType::kAttemptKill:
      out += ", \"task\": " + std::to_string(r.task) +
             ", \"node\": " + std::to_string(r.node) + ", \"reason\": \"" +
             to_string(r.reason) + "\"";
      break;
    case EventType::kTransferRequest:
      out += ", \"task\": " + std::to_string(r.task) + ", ";
      append_src(out, r.peer);
      out += ", \"dst\": " + std::to_string(r.node) +
             ", \"ticket\": " + std::to_string(r.ticket) +
             ", \"start\": " + json_number(r.v0) +
             ", \"end\": " + json_number(r.v1);
      break;
    case EventType::kTransferStall:
      out += ", \"task\": " + std::to_string(r.task) + ", ";
      append_src(out, r.peer);
      out += ", \"ticket\": " + std::to_string(r.ticket);
      break;
    case EventType::kTransferResume:
      out += ", \"task\": " + std::to_string(r.task) + ", ";
      append_src(out, r.peer);
      out += ", \"ticket\": " + std::to_string(r.ticket) +
             ", \"end\": " + json_number(r.v0);
      break;
    case EventType::kTransferAbort:
      out += ", \"task\": " + std::to_string(r.task) + ", ";
      append_src(out, r.peer);
      out += ", \"ticket\": " + std::to_string(r.ticket) +
             ", \"reason\": \"" + to_string(r.reason) +
             "\", \"reclaimed\": " + json_number(r.v0);
      break;
    case EventType::kTaskPark:
      out += ", \"task\": " + std::to_string(r.task);
      break;
    case EventType::kTaskRevive:
      out += ", \"task\": " + std::to_string(r.task) +
             ", \"node\": " + std::to_string(r.node);
      break;
    case EventType::kJobEnd:
      out += ", \"tasks\": " + std::to_string(r.task);
      break;
    case EventType::kNodeDead:
      out += ", \"node\": " + std::to_string(r.node) +
             ", \"replicas\": " + std::to_string(r.aux);
      break;
    case EventType::kReplicaLost:
      out += ", \"block\": " + std::to_string(r.task) +
             ", \"recoverable\": " + std::to_string(r.aux);
      break;
    case EventType::kRereplicationStart:
      out += ", \"block\": " + std::to_string(r.task) + ", ";
      append_src(out, r.peer);
      out += ", \"dst\": " + std::to_string(r.node) +
             ", \"ticket\": " + std::to_string(r.ticket) +
             ", \"attempt\": " + std::to_string(r.aux) +
             ", \"start\": " + json_number(r.v0) +
             ", \"end\": " + json_number(r.v1);
      break;
    case EventType::kRereplicationDone:
      out += ", \"block\": " + std::to_string(r.task) + ", ";
      append_src(out, r.peer);
      out += ", \"dst\": " + std::to_string(r.node) +
             ", \"ticket\": " + std::to_string(r.ticket) +
             ", \"bytes\": " + json_number(r.v0);
      break;
    case EventType::kRereplicationRetry:
      out += ", \"block\": " + std::to_string(r.task) + ", \"reason\": \"" +
             to_string(r.reason) +
             "\", \"attempt\": " + std::to_string(r.aux) +
             ", \"next\": " + json_number(r.v0);
      break;
    case EventType::kRereplicationGiveup:
      out += ", \"block\": " + std::to_string(r.task) +
             ", \"attempts\": " + std::to_string(r.aux);
      break;
    case EventType::kPredictorDrift:
      out += ", \"node\": " + std::to_string(r.node) +
             ", \"score\": " + json_number(r.v0) +
             ", \"latency\": " + json_number(r.v1);
      break;
    case EventType::kRebalanceTrigger:
      out += ", \"moves\": " + std::to_string(r.task) +
             ", \"alarms\": " + std::to_string(r.aux);
      break;
    case EventType::kMigrationStart:
      out += ", \"block\": " + std::to_string(r.task) + ", ";
      append_src(out, r.peer);
      out += ", \"dst\": " + std::to_string(r.node) +
             ", \"ticket\": " + std::to_string(r.ticket) +
             ", \"attempt\": " + std::to_string(r.aux) +
             ", \"start\": " + json_number(r.v0) +
             ", \"end\": " + json_number(r.v1);
      break;
    case EventType::kMigrationCommit:
      out += ", \"block\": " + std::to_string(r.task) + ", ";
      append_src(out, r.peer);
      out += ", \"dst\": " + std::to_string(r.node) +
             ", \"ticket\": " + std::to_string(r.ticket) +
             ", \"bytes\": " + json_number(r.v0);
      break;
    case EventType::kMigrationRetry:
      out += ", \"block\": " + std::to_string(r.task) + ", \"reason\": \"" +
             to_string(r.reason) +
             "\", \"attempt\": " + std::to_string(r.aux) +
             ", \"next\": " + json_number(r.v0);
      break;
    case EventType::kMigrationGiveup:
      out += ", \"block\": " + std::to_string(r.task) +
             ", \"attempts\": " + std::to_string(r.aux);
      break;
    case EventType::kPartitionStart:
    case EventType::kPartitionHeal:
      out += ", \"nodes\": " + std::to_string(r.aux);
      break;
    case EventType::kStragglerStart:
      out += ", \"node\": " + std::to_string(r.node) +
             ", \"slow\": " + json_number(r.v0);
      break;
    case EventType::kStragglerEnd:
      out += ", \"node\": " + std::to_string(r.node);
      break;
    case EventType::kReplicaCorrupt:
      out += ", \"block\": " + std::to_string(r.task) +
             ", \"node\": " + std::to_string(r.node);
      break;
    case EventType::kCorruptRead:
      out += ", \"block\": " + std::to_string(r.task) +
             ", \"node\": " + std::to_string(r.node) + ", \"path\": \"" +
             (r.aux == 0 ? "local" : r.aux == 1 ? "remote" : "scan") +
             "\"";
      break;
    case EventType::kSafeModeEnter:
      out += ", \"deferred\": " + std::to_string(r.aux) +
             ", \"fraction\": " + json_number(r.v0);
      break;
    case EventType::kSafeModeExit:
      out += ", \"writeoffs\": " + std::to_string(r.task) +
             ", \"healed\": " + std::to_string(r.aux);
      break;
    case EventType::kNodeRevived:
      out += ", \"node\": " + std::to_string(r.node) +
             ", \"restored\": " + std::to_string(r.task) +
             ", \"trimmed\": " + std::to_string(r.aux);
      break;
    case EventType::kRedundantWaste:
      out += ", \"task\": " + std::to_string(r.task) +
             ", \"node\": " + std::to_string(r.node) +
             ", \"bytes\": " + json_number(r.v0);
      break;
    case EventType::kReplicaWriteoff:
      out += ", \"block\": " + std::to_string(r.task) +
             ", \"node\": " + std::to_string(r.node) +
             ", \"false_positive\": " + std::to_string(r.aux);
      break;
    case EventType::kReplicaRestore:
    case EventType::kReplicaTrim:
      out += ", \"block\": " + std::to_string(r.task) +
             ", \"node\": " + std::to_string(r.node);
      break;
  }
  out += "}";
}

std::string to_jsonl(const std::vector<RunObservations>& runs) {
  std::string out;
  for (std::size_t run = 0; run < runs.size(); ++run) {
    if (runs[run].dropped > 0) {
      out += "{\"run\": " + std::to_string(run) +
             ", \"ev\": \"dropped\", \"count\": " +
             std::to_string(runs[run].dropped) + "}\n";
    }
    for (const TraceRecord& r : runs[run].records) {
      append_jsonl(out, run, r);
      out += "\n";
    }
  }
  return out;
}

namespace {

void write_text(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("trace: cannot open " + path);
  }
  const std::size_t written =
      std::fwrite(text.data(), 1, text.size(), file);
  const int close_rc = std::fclose(file);
  if (written != text.size() || close_rc != 0) {
    throw std::runtime_error("trace: short write to " + path);
  }
}

}  // namespace

void write_jsonl(const std::string& path,
                 const std::vector<RunObservations>& runs) {
  write_text(path, to_jsonl(runs));
}

std::string spans_to_jsonl(const std::vector<RunObservations>& runs,
                           bool include_host) {
  std::string out;
  for (std::size_t run = 0; run < runs.size(); ++run) {
    for (const SpanRecord& s : runs[run].spans) {
      out += "{\"run\": " + std::to_string(run) + ", \"span\": \"" +
             common::json_escape(s.name) +
             "\", \"depth\": " + std::to_string(s.depth) +
             ", \"t0\": " + json_number(s.start) +
             ", \"dur\": " + json_number(s.dur_sim) +
             ", \"self\": " + json_number(s.self_sim);
      if (include_host) {
        out += ", \"host_ns\": " + std::to_string(s.dur_host_ns) +
               ", \"host_self_ns\": " + std::to_string(s.self_host_ns);
      }
      out += "}\n";
    }
  }
  return out;
}

void write_spans_jsonl(const std::string& path,
                       const std::vector<RunObservations>& runs,
                       bool include_host) {
  write_text(path, spans_to_jsonl(runs, include_host));
}

std::string timeseries_to_jsonl(const std::vector<RunObservations>& runs) {
  std::string out;
  for (std::size_t run = 0; run < runs.size(); ++run) {
    const TimeSeriesSnapshot& ts = runs[run].timeseries;
    for (std::size_t row = 0; row < ts.times.size(); ++row) {
      out += "{\"run\": " + std::to_string(run) +
             ", \"t\": " + json_number(ts.times[row]) + ", \"series\": {";
      for (std::size_t col = 0; col < ts.series.size(); ++col) {
        if (col > 0) out += ", ";
        out += '"';
        out += common::json_escape(ts.series[col].first);
        out += "\": ";
        out += json_number(ts.series[col].second[row]);
      }
      out += "}}\n";
    }
  }
  return out;
}

void write_timeseries_jsonl(const std::string& path,
                            const std::vector<RunObservations>& runs) {
  write_text(path, timeseries_to_jsonl(runs));
}

}  // namespace adapt::obs
