#include "src/fault/plan.hpp"

#include <algorithm>
#include <cassert>

namespace ardbt::fault {
std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kBitFlip:
      return "bit-flip";
    case FaultKind::kStraggle:
      return "straggle";
    case FaultKind::kCrash:
      return "crash";
  }
  return "unknown";
}

FaultPlan& FaultPlan::delay_message(int rank, std::uint64_t nth_send, double seconds) {
  return add({.kind = FaultKind::kDelay, .rank = rank, .nth_send = nth_send, .seconds = seconds});
}

FaultPlan& FaultPlan::duplicate_message(int rank, std::uint64_t nth_send) {
  return add({.kind = FaultKind::kDuplicate, .rank = rank, .nth_send = nth_send});
}

FaultPlan& FaultPlan::flip_bit(int rank, std::uint64_t nth_send, std::uint64_t bit) {
  return add({.kind = FaultKind::kBitFlip, .rank = rank, .nth_send = nth_send, .bit = bit});
}

FaultPlan& FaultPlan::straggle(int rank, std::uint64_t nth_send, double seconds) {
  return add(
      {.kind = FaultKind::kStraggle, .rank = rank, .nth_send = nth_send, .seconds = seconds});
}

FaultPlan& FaultPlan::crash_before_send(int rank, std::uint64_t nth_send) {
  return add({.kind = FaultKind::kCrash, .rank = rank, .nth_send = nth_send});
}

FaultPlan& FaultPlan::add(FaultSpec spec) {
  specs_.push_back(spec);
  return *this;
}

void FaultPlan::prepare(int nranks) {
  if (per_rank_.size() == static_cast<std::size_t>(nranks)) return;  // retried run: keep state
  per_rank_.assign(static_cast<std::size_t>(nranks), RankState{});
  for (auto& state : per_rank_) {
    state.send_seq.assign(static_cast<std::size_t>(nranks), 0);
  }
}

SendActions FaultPlan::on_send(int rank, int dst, int tag, double vtime) {
  RankState& state = per_rank_[static_cast<std::size_t>(rank)];
  const std::uint64_t ordinal = state.sends++;
  SendActions actions;
  for (FaultSpec& spec : specs_) {
    if (spec.fired || spec.rank != rank || spec.nth_send != ordinal) continue;
    spec.fired = true;
    actions.injected_count += 1;
    switch (spec.kind) {
      case FaultKind::kDelay:
        actions.delay_seconds += spec.seconds;
        break;
      case FaultKind::kDuplicate:
        actions.duplicate = true;
        break;
      case FaultKind::kBitFlip:
        actions.flip = true;
        actions.flip_bit = spec.bit;
        break;
      case FaultKind::kStraggle:
        actions.straggle_seconds += spec.seconds;
        break;
      case FaultKind::kCrash:
        actions.crash = true;
        break;
    }
    state.injected.push_back({.kind = spec.kind,
                              .rank = rank,
                              .peer = dst,
                              .tag = tag,
                              .seq = ordinal,
                              .vtime = vtime,
                              .detected = false});
  }
  return actions;
}

void FaultPlan::record_detected(int rank, FaultKind kind, int src, int tag, std::uint64_t seq,
                                double vtime) {
  per_rank_[static_cast<std::size_t>(rank)].detected.push_back({.kind = kind,
                                                                .rank = rank,
                                                                .peer = src,
                                                                .tag = tag,
                                                                .seq = seq,
                                                                .vtime = vtime,
                                                                .detected = true});
}

std::uint64_t FaultPlan::next_seq(int rank, int dst) {
  return per_rank_[static_cast<std::size_t>(rank)].send_seq[static_cast<std::size_t>(dst)]++;
}

std::vector<FaultEvent> FaultPlan::injected() const {
  std::vector<FaultEvent> all;
  for (const RankState& state : per_rank_) {
    all.insert(all.end(), state.injected.begin(), state.injected.end());
  }
  return all;
}

std::vector<FaultEvent> FaultPlan::detected() const {
  std::vector<FaultEvent> all;
  for (const RankState& state : per_rank_) {
    all.insert(all.end(), state.detected.begin(), state.detected.end());
  }
  return all;
}

std::uint64_t checksum(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace ardbt::fault
