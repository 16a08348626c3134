#include "src/mpsim/comm.hpp"

#include <ctime>

#include "src/fault/plan.hpp"

namespace ardbt::mpsim {

namespace {

/// Wire framing prepended to every payload while a FaultPlan is installed:
/// a per-(sender, receiver) sequence number for duplicate detection and an
/// FNV-1a checksum of the (pre-corruption) data for bit-flip detection.
/// Fault-free runs carry no header, so message sizes and virtual times are
/// bit-identical to a build without the fault layer.
struct WireHeader {
  std::uint64_t seq = 0;
  std::uint64_t crc = 0;
};
constexpr std::size_t kHeaderBytes = sizeof(WireHeader);

}  // namespace

double Comm::cpu_now() const {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void Comm::reset_cpu_baseline() { cpu_baseline_ = cpu_now(); }

void Comm::sync_compute() {
  const double now = cpu_now();
  const double delta = now - cpu_baseline_;
  cpu_baseline_ = now;
  if (delta <= 0.0) return;
  stats_.cpu_seconds += delta;
  if (world_->timing == TimingMode::MeasuredCpu) {
    const double v0 = vtime_;
    vtime_ += delta;
    if constexpr (obs::kTraceCompiledIn) {
      if (trace_ != nullptr) {
        const double wall = trace_->wall_now();
        trace_->add_compute({v0, wall - delta}, {vtime_, wall}, 0.0);
      }
    }
  }
}

void Comm::charge_flops(double f) {
  stats_.flops_charged += f;
  if (world_->timing == TimingMode::ChargedFlops) {
    const double v0 = vtime_;
    vtime_ += f / world_->cost.flop_rate;
    if constexpr (obs::kTraceCompiledIn) {
      if (trace_ != nullptr) {
        const double wall = trace_->wall_now();
        trace_->add_compute({v0, wall}, {vtime_, wall}, f);
      }
    }
  }
}

void Comm::send_bytes(int dst, int tag, std::span<const std::byte> payload) {
  assert(dst >= 0 && dst < size());
  sync_compute();
  const auto nbytes = static_cast<std::uint64_t>(payload.size());
  Message msg;
  msg.source = rank_;
  msg.tag = tag;
  double extra_delay = 0.0;
  bool duplicate = false;
  if (world_->plan == nullptr) {
    msg.payload.assign(payload.begin(), payload.end());
  } else {
    const fault::SendActions actions = world_->plan->on_send(rank_, dst, tag, vtime_);
    stats_.faults_injected += static_cast<std::uint64_t>(actions.injected_count);
    if (actions.crash) {
      // Fail-stop before anything reaches the wire: receivers observe the
      // rank's death flag and abort at their data-flow-determined recv.
      if constexpr (obs::kTraceCompiledIn) {
        if (trace_ != nullptr) {
          trace_->instant(obs::SpanKind::kMark, "fault.crash", {vtime_, trace_->wall_now()}, dst, 0);
        }
      }
      if (recorder_ != nullptr) recorder_->record_mark("fault.crash", vtime_, dst);
      throw fault::InjectedCrashError(rank_);
    }
    if (actions.straggle_seconds > 0.0) {
      // Slow-node model: the rank loses virtual time before the send.
      const double s0 = vtime_;
      vtime_ += actions.straggle_seconds;
      if constexpr (obs::kTraceCompiledIn) {
        if (trace_ != nullptr) {
          const double wall = trace_->wall_now();
          trace_->complete(obs::SpanKind::kWait, "fault.straggle", {s0, wall}, {vtime_, wall}, dst, 0);
        }
      }
      if (recorder_ != nullptr) {
        recorder_->record_span("fault.straggle", vtime_, actions.straggle_seconds);
      }
    }
    WireHeader header;
    header.seq = world_->plan->next_seq(rank_, dst);
    header.crc = fault::checksum(payload);
    msg.payload.resize(kHeaderBytes + payload.size());
    std::memcpy(msg.payload.data(), &header, kHeaderBytes);
    if (!payload.empty()) {
      std::memcpy(msg.payload.data() + kHeaderBytes, payload.data(), payload.size());
    }
    if (actions.flip && !payload.empty()) {
      // Corrupt after the checksum is computed so the receiver can detect it.
      const std::uint64_t bit = actions.flip_bit % (static_cast<std::uint64_t>(payload.size()) * 8);
      msg.payload[kHeaderBytes + static_cast<std::size_t>(bit / 8)] ^=
          static_cast<std::byte>(1u << (bit % 8));
    }
    extra_delay = actions.delay_seconds;
    duplicate = actions.duplicate;
  }
  // Alpha-beta model: the payload is visible to the receiver one latency
  // plus serialization time after the send is issued; the sender itself is
  // busy for the latency term (LogP overhead `o`).
  msg.available_vtime = vtime_ + world_->cost.message_time(nbytes) + extra_delay;
  const double v0 = vtime_;
  vtime_ += world_->cost.alpha;
  stats_.msgs_sent += 1;
  stats_.bytes_sent += nbytes;
  if constexpr (obs::kTraceCompiledIn) {
    if (trace_ != nullptr) {
      msg.trace_seq = trace_->next_send_seq(dst);
      const double wall = trace_->wall_now();
      trace_->complete(obs::SpanKind::kSend, "send", {v0, wall}, {vtime_, wall}, dst, nbytes,
                       msg.trace_seq);
      trace_->tally_sent(nbytes);
    }
  }
  Mailbox& box = world_->mailboxes[static_cast<std::size_t>(dst)];
  if (duplicate) box.push(msg);  // same seq twice; receiver drops the second copy
  box.push(std::move(msg));
  // Copying into the message counted as compute; restart the baseline so
  // serialization cost is attributed to this rank but not double-charged.
  reset_cpu_baseline();
}

bool Comm::recv_ready(int src, int tag) {
  assert(src >= 0 && src < size());
  // Fold pending measured compute first so the cutoff is this rank's true
  // current virtual instant; the probe itself never advances the clock.
  sync_compute();
  return world_->mailboxes[static_cast<std::size_t>(rank_)].peek_available(
      src, tag, vtime_, world_->dead[static_cast<std::size_t>(src)], world_->recv_timeout_wall);
}

std::span<const std::byte> Comm::recv_bytes(int src, int tag) {
  assert(src >= 0 && src < size());
  sync_compute();
  fault::FaultPlan* plan = world_->plan;
  Mailbox& box = world_->mailboxes[static_cast<std::size_t>(rank_)];
  for (;;) {
    const double v0 = vtime_;
    Message msg = box.pop(src, tag, world_->dead[static_cast<std::size_t>(src)],
                          world_->recv_timeout_wall);
    const std::span<const std::byte> payload = box.retain(std::move(msg.payload));
    double waited = 0.0;
    if (msg.available_vtime > vtime_) {
      waited = msg.available_vtime - vtime_;
      stats_.virtual_wait += waited;
      vtime_ = msg.available_vtime;
      if constexpr (obs::kTraceCompiledIn) {
        if (trace_ != nullptr) {
          const double wall = trace_->wall_now();
          trace_->complete(obs::SpanKind::kWait, "wait", {v0, wall}, {vtime_, wall}, src,
                           static_cast<std::uint64_t>(payload.size()), msg.trace_seq);
        }
      }
    }
    if (world_->virtual_deadline > 0.0 && waited > world_->virtual_deadline) {
      // The peer was slower than the cost model predicts it should ever be:
      // detection signal for injected delays and stragglers.
      stats_.deadline_misses += 1;
      if (plan != nullptr) {
        plan->record_detected(rank_, fault::FaultKind::kDelay, src, tag, 0, vtime_);
      }
      if constexpr (obs::kTraceCompiledIn) {
        if (trace_ != nullptr) {
          trace_->instant(obs::SpanKind::kMark, "fault.deadline_miss",
                          {vtime_, trace_->wall_now()}, src, 0);
        }
      }
      if (recorder_ != nullptr) recorder_->record_mark("fault.deadline_miss", vtime_, waited);
    }
    if (plan == nullptr) {
      stats_.msgs_received += 1;
      stats_.bytes_received += static_cast<std::uint64_t>(payload.size());
      if constexpr (obs::kTraceCompiledIn) {
        if (trace_ != nullptr) {
          trace_->instant(obs::SpanKind::kRecv, "recv", {vtime_, trace_->wall_now()}, src,
                          static_cast<std::uint64_t>(payload.size()), msg.trace_seq);
        }
      }
      reset_cpu_baseline();
      return payload;
    }
    // Fault-aware path: strip and verify the wire header.
    if (payload.size() < kHeaderBytes) {
      throw fault::MessageSizeError(src, tag, static_cast<std::uint64_t>(kHeaderBytes),
                                    static_cast<std::uint64_t>(payload.size()));
    }
    WireHeader header;
    std::memcpy(&header, payload.data(), kHeaderBytes);
    if (seen_seqs_.empty()) seen_seqs_.resize(static_cast<std::size_t>(size()));
    auto& seen = seen_seqs_[static_cast<std::size_t>(src)];
    if (!seen.insert(header.seq).second) {
      // Injected duplicate: drop it and pop the mailbox again.
      stats_.faults_detected += 1;
      plan->record_detected(rank_, fault::FaultKind::kDuplicate, src, tag, header.seq, vtime_);
      if constexpr (obs::kTraceCompiledIn) {
        if (trace_ != nullptr) {
          trace_->instant(obs::SpanKind::kMark, "fault.duplicate_dropped",
                          {vtime_, trace_->wall_now()}, src,
                          static_cast<std::uint64_t>(payload.size()));
        }
      }
      if (recorder_ != nullptr) recorder_->record_mark("fault.duplicate_dropped", vtime_, src);
      continue;
    }
    const std::span<const std::byte> data = payload.subspan(kHeaderBytes);
    const std::uint64_t got_crc = fault::checksum(data);
    if (got_crc != header.crc) {
      stats_.faults_detected += 1;
      plan->record_detected(rank_, fault::FaultKind::kBitFlip, src, tag, header.seq, vtime_);
      if constexpr (obs::kTraceCompiledIn) {
        if (trace_ != nullptr) {
          trace_->instant(obs::SpanKind::kMark, "fault.corrupt",
                          {vtime_, trace_->wall_now()}, src,
                          static_cast<std::uint64_t>(data.size()));
        }
      }
      if (recorder_ != nullptr) recorder_->record_mark("fault.corrupt", vtime_, src);
      throw fault::MessageCorruptError(src, tag, header.crc, got_crc);
    }
    stats_.msgs_received += 1;
    stats_.bytes_received += static_cast<std::uint64_t>(data.size());
    if constexpr (obs::kTraceCompiledIn) {
      if (trace_ != nullptr) {
        trace_->instant(obs::SpanKind::kRecv, "recv", {vtime_, trace_->wall_now()}, src,
                        static_cast<std::uint64_t>(data.size()), msg.trace_seq);
      }
    }
    reset_cpu_baseline();
    return data;
  }
}

}  // namespace ardbt::mpsim
