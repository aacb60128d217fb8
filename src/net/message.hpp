// What travels on the fabric: a typed, allocation-free message.
//
// A message names its kind with a small interned id (MsgKind) and carries
// its payload inline (Payload).  The fabric copies each message into its
// delivery event, so with both inline a send/deliver pair touches the
// allocator zero times.
//
// The fabric stays independent of the layers above it: a MsgKind is
// registered by name by whichever layer defines it (runtime/protocol.hpp,
// dsm/dsm.cpp, the environment's health probes), and a Payload holds any
// small copyable struct.  Traces, FabricStats::sent_by_type and chaos loss
// filters still see the kind's name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "common/ids.hpp"
#include "obs/obs.hpp"

namespace vdce::net {

using common::HostId;

/// The kind of a message ("mon.report", "dm.data", ...): a small integer
/// interned once per name.  Handlers compare kinds; the name is looked up
/// only where a string is wanted (traces, stats, loss filters).
class MsgKind {
 public:
  /// Capacity of the process-wide name table.  The runtime, DSM and health
  /// planes register about 40 kinds.
  static constexpr std::size_t kMaxKinds = 256;

  /// The unnamed kind (id 0, name "").
  constexpr MsgKind() noexcept = default;

  /// The kind named `name`, registered on first use: equal names give
  /// equal kinds.  Declare each kind once, as a namespace-scope constant
  /// (see runtime/protocol.hpp); registering more than kMaxKinds distinct
  /// names aborts.
  explicit MsgKind(std::string_view name);

  /// The kind with id `id` (ids come from `id()`; out of range aborts).
  [[nodiscard]] static MsgKind from_id(std::size_t id);

  [[nodiscard]] std::uint16_t id() const noexcept { return id_; }
  [[nodiscard]] std::string_view name() const noexcept;

  friend bool operator==(MsgKind, MsgKind) noexcept = default;

 private:
  std::uint16_t id_ = 0;
};

/// A message's payload: one small copyable value held inline.
///
/// The size is a hard contract, checked where a payload is built, exactly
/// like sim::Task's closure budget: a value larger than kInlineBytes is a
/// compile error.  Large payloads travel as `std::shared_ptr<const T>`
/// (docs/PROTOCOL.md lists which).  Reading a payload names its type,
/// `payload.as<T>()`, and a wrong type aborts with both type names in
/// every build type.
class Payload {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  Payload() noexcept = default;

  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<T>, Payload>>>
  // NOLINTNEXTLINE(google-explicit-constructor) — payload structs convert
  // implicitly, so a send reads `Message{src, dst, kind, bytes, Struct{..}}`.
  Payload(T&& value) {  // NOLINT
    using V = std::decay_t<T>;
    static_assert(sizeof(V) <= kInlineBytes,
                  "payload exceeds net::Payload inline storage; send it as "
                  "std::shared_ptr<const T>");
    static_assert(alignof(V) <= kAlign, "over-aligned payloads unsupported");
    static_assert(std::is_copy_constructible_v<V> &&
                      std::is_nothrow_move_constructible_v<V>,
                  "payloads must be copyable and nothrow-movable");
    ::new (static_cast<void*>(storage_)) V(std::forward<T>(value));
    ops_ = &kOps<V>;
  }

  Payload(const Payload& other) { copy_from(other); }
  Payload(Payload&& other) noexcept { move_from(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  ~Payload() { reset(); }

  /// The held value.  Aborts (in every build type) unless it is a `T`.
  template <typename T>
  [[nodiscard]] const T& as() const {
    if (ops_ != &kOps<T>) [[unlikely]] {
      type_mismatch(typeid(T).name());
    }
    return *std::launder(reinterpret_cast<const T*>(storage_));
  }

 private:
  static constexpr std::size_t kAlign = 8;

  /// Per-type operations.
  struct Ops {
    const char* (*type_name)() noexcept;
    void (*copy)(void* dst, const void* src);
    void (*move)(void* dst, void* src) noexcept;  ///< move-construct, destroy src
    void (*destroy)(void* p) noexcept;
  };

  template <typename V>
  static constexpr Ops kOps{
      [] () noexcept { return typeid(V).name(); },
      [](void* dst, const void* src) {
        ::new (dst) V(*static_cast<const V*>(src));
      },
      [](void* dst, void* src) noexcept {
        V* v = static_cast<V*>(src);
        ::new (dst) V(std::move(*v));
        v->~V();
      },
      [](void* p) noexcept { static_cast<V*>(p)->~V(); }};

  void reset() noexcept {
    if (ops_ != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  void copy_from(const Payload& other) {
    if (other.ops_ == nullptr) return;
    other.ops_->copy(storage_, other.storage_);
    ops_ = other.ops_;
  }

  void move_from(Payload& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->move(storage_, other.storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  [[noreturn]] void type_mismatch(const char* wanted) const;

  alignas(kAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Causal identity a sender may stamp on a message so the trace layer can
/// link the resulting `fabric.transfer` span into the per-application causal
/// DAG (obs/causal.hpp): which application the bytes belong to, which task
/// consumes them, and which task produced them.  All-default means "control
/// traffic" and adds nothing to the record.
struct MessageCause {
  std::uint32_t app = obs::kNoCausalId;
  std::uint32_t task = obs::kNoCausalId;      ///< consumer task
  std::uint32_t src_task = obs::kNoCausalId;  ///< producer task
};

struct Message {
  Message() = default;
  Message(HostId src_host, HostId dst_host, MsgKind message_kind,
          double bytes, Payload body = {}, MessageCause tag = {})
      : src(src_host),
        dst(dst_host),
        cause(tag),
        kind(message_kind),
        size_bytes(bytes),
        payload(std::move(body)) {}

  HostId src;
  HostId dst;
  MessageCause cause;      ///< optional causal tag (data-plane traffic)
  MsgKind kind;            ///< e.g. "gm.echo", "sm.rat", "dm.data"
  double size_bytes = 64;  ///< wire size charged to the link (headers incl.)
  Payload payload;
};

}  // namespace vdce::net
