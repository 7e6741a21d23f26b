#include "mpl/trace.hpp"

#include <algorithm>
#include <sstream>

namespace ppa::mpl {

std::string op_name(Op op) {
  switch (op) {
    case Op::kSend: return "send";
    case Op::kBarrier: return "barrier";
    case Op::kBroadcast: return "broadcast";
    case Op::kGather: return "gather";
    case Op::kAllgather: return "allgather";
    case Op::kScatter: return "scatter";
    case Op::kReduce: return "reduce";
    case Op::kAllreduce: return "allreduce";
    case Op::kAlltoall: return "alltoall";
    case Op::kScan: return "scan";
    case Op::kCount_: break;
  }
  return "unknown";
}

CommTrace::CommTrace(int nranks)
    : blocks_(nranks > 0 ? static_cast<std::size_t>(nranks) : 1),
      per_rank_(nranks > 0) {}

void CommTrace::reset() {
  for (auto& b : blocks_) {
    b.messages.store(0, std::memory_order_relaxed);
    b.bytes.store(0, std::memory_order_relaxed);
    b.copies.store(0, std::memory_order_relaxed);
    b.copied_bytes.store(0, std::memory_order_relaxed);
    for (auto& c : b.ops) c.store(0, std::memory_order_relaxed);
  }
}

TraceSnapshot CommTrace::snapshot() const {
  TraceSnapshot s;
  if (per_rank_) s.sent_bytes_by_rank.reserve(blocks_.size());
  for (const auto& b : blocks_) {
    const auto bytes = b.bytes.load(std::memory_order_relaxed);
    s.messages += b.messages.load(std::memory_order_relaxed);
    s.bytes += bytes;
    s.copies += b.copies.load(std::memory_order_relaxed);
    s.copied_bytes += b.copied_bytes.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      s.ops[i] += b.ops[i].load(std::memory_order_relaxed);
    }
    if (per_rank_) s.sent_bytes_by_rank.push_back(bytes);
  }
  return s;
}

std::uint64_t TraceSnapshot::max_sent_by_any_rank() const {
  if (sent_bytes_by_rank.empty()) return 0;
  return *std::max_element(sent_bytes_by_rank.begin(), sent_bytes_by_rank.end());
}

std::string TraceSnapshot::to_string() const {
  std::ostringstream os;
  os << "p2p messages: " << messages << ", payload bytes: " << bytes
     << ", copied bytes: " << copied_bytes << " (" << copies << " copies)\n";
  for (int i = 0; i < kOpCount; ++i) {
    const auto count = ops[static_cast<std::size_t>(i)];
    if (count > 0) {
      os << "  " << op_name(static_cast<Op>(i)) << ": " << count << "\n";
    }
  }
  if (!sent_bytes_by_rank.empty()) {
    os << "  sent bytes by rank:";
    for (const auto b : sent_bytes_by_rank) os << ' ' << b;
    os << "\n";
  }
  return os.str();
}

}  // namespace ppa::mpl
