// ppa/mpl/message.hpp
//
// Wire format for the message-passing layer. A sent payload is an
// *immutable* byte buffer: small messages (<= Payload::kInlineBytes) are
// stored inline in the envelope, larger ones in a shared reference-counted
// buffer. Because payloads are immutable, handing the same buffer to many
// destinations (broadcast fan-out, collective forwarding) is a refcount
// bump, not a deep copy — while the distributed-memory discipline of the
// machines the paper targets (Intel Delta / Paragon / IBM SP) is preserved:
// no two "processes" (threads) ever share *mutable* state through a message.
//
// Ownership contract: Payload::adopt takes a vector's storage (the caller
// relinquishes it — never reuse a moved-in buffer); payload_view and
// Received<T> *borrow* — the view is valid only while the owning
// Payload/Received lives, and borrowed bytes must never be mutated.
// Payloads are immutable after construction, hence freely shareable across
// threads; none of these functions block.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace ppa::mpl {

/// Types that can cross the wire: anything memcpy-safe.
template <typename T>
concept Wire = std::is_trivially_copyable_v<T>;

/// Wildcard selectors for recv.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -2147483647;

/// Immutable message payload with small-buffer optimization. Copying a
/// Payload never copies large data: inline payloads memcpy at most
/// kInlineBytes, heap payloads share ownership of one allocation.
class Payload {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  Payload() = default;

  /// Compat with pack(): adopt a raw byte vector (zero-copy when large).
  Payload(std::vector<std::byte> bytes) {  // NOLINT(google-explicit-constructor)
    if (bytes.size() <= kInlineBytes) {
      init_inline(std::span<const std::byte>(bytes));
    } else {
      adopt_owner(std::move(bytes));
    }
  }

  /// Deep-copy a byte range (inline when it fits, one heap copy otherwise).
  [[nodiscard]] static Payload copy_of(std::span<const std::byte> bytes) {
    Payload p;
    if (bytes.size() <= kInlineBytes) {
      p.init_inline(bytes);
    } else {
      std::shared_ptr<std::byte[]> buf(new std::byte[bytes.size()]);
      std::memcpy(buf.get(), bytes.data(), bytes.size());
      p.size_ = bytes.size();
      p.heap_ = std::shared_ptr<const std::byte>(buf, buf.get());
    }
    return p;
  }

  /// Adopt a typed vector's buffer without copying bytes (the vector is
  /// moved into shared ownership; small vectors collapse to inline storage).
  template <Wire T>
  [[nodiscard]] static Payload adopt(std::vector<T>&& data) {
    Payload p;
    if (data.size() * sizeof(T) <= kInlineBytes) {
      p.init_inline(std::as_bytes(std::span<const T>(data)));
    } else {
      p.adopt_owner(std::move(data));
    }
    return p;
  }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {heap_ ? heap_.get() : sbo_.data(), size_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// True when the payload lives inline in the envelope (diagnostic).
  [[nodiscard]] bool inline_storage() const noexcept { return heap_ == nullptr; }

 private:
  void init_inline(std::span<const std::byte> bytes) {
    assert(bytes.size() <= kInlineBytes);
    size_ = bytes.size();
    if (size_ > 0) std::memcpy(sbo_.data(), bytes.data(), size_);
  }
  template <typename Container>
  void adopt_owner(Container&& data) {
    auto owner = std::make_shared<Container>(std::move(data));
    size_ = owner->size() * sizeof(typename Container::value_type);
    heap_ = std::shared_ptr<const std::byte>(
        owner, reinterpret_cast<const std::byte*>(owner->data()));
  }

  std::size_t size_ = 0;
  alignas(std::max_align_t) std::array<std::byte, kInlineBytes> sbo_{};
  std::shared_ptr<const std::byte> heap_;
};

/// A message in flight: source rank, tag, an immutable payload, and the
/// arrival sequence number stamped by the receiving mailbox (used to give
/// wildcard receives a deterministic global-arrival-order semantics).
struct Envelope {
  int source = 0;
  int tag = 0;
  Payload payload;
  std::uint64_t seq = 0;
};

/// Serialize a span of trivially copyable values into raw bytes.
template <Wire T>
std::vector<std::byte> pack(std::span<const T> data) {
  std::vector<std::byte> bytes(data.size_bytes());
  if (!bytes.empty()) std::memcpy(bytes.data(), data.data(), bytes.size());
  return bytes;
}

/// Serialize directly into a Payload (single copy, inline when small).
template <Wire T>
Payload pack_payload(std::span<const T> data) {
  return Payload::copy_of(std::as_bytes(data));
}

/// Deserialize a byte buffer produced by pack<T>() / pack_payload<T>().
template <Wire T>
std::vector<T> unpack(std::span<const std::byte> bytes) {
  assert(bytes.size() % sizeof(T) == 0 && "payload size mismatch for type");
  std::vector<T> data(bytes.size() / sizeof(T));
  if (!bytes.empty()) std::memcpy(data.data(), bytes.data(), bytes.size());
  return data;
}
template <Wire T>
std::vector<T> unpack(const Payload& payload) {
  return unpack<T>(payload.bytes());
}
// Exact-match overload: keeps unpack(vector) unambiguous now that a raw
// byte vector also converts implicitly to Payload.
template <Wire T>
std::vector<T> unpack(const std::vector<std::byte>& bytes) {
  return unpack<T>(std::span<const std::byte>(bytes));
}

/// Deserialize into caller-owned storage; returns the element count.
template <Wire T>
std::size_t unpack_into(const Payload& payload, std::span<T> out) {
  const auto bytes = payload.bytes();
  assert(bytes.size() % sizeof(T) == 0 && "payload size mismatch for type");
  const std::size_t count = bytes.size() / sizeof(T);
  assert(count <= out.size() && "unpack_into: destination too small");
  if (count > 0) std::memcpy(out.data(), bytes.data(), count * sizeof(T));
  return count;
}

/// Borrow a payload's bytes as a typed, read-only view (no copy). The view
/// is valid for the lifetime of `payload`; alignment is guaranteed by the
/// inline buffer / heap allocation / adopted vector storage.
template <Wire T>
std::span<const T> payload_view(const Payload& payload) {
  const auto bytes = payload.bytes();
  assert(bytes.size() % sizeof(T) == 0 && "payload size mismatch for type");
  assert(reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T) == 0);
  return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
}

}  // namespace ppa::mpl
