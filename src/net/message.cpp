#include "net/message.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace vdce::net {

namespace {

/// Process-wide kind names, id 0 being the unnamed kind "".  A fixed array,
/// so the views name() hands out stay valid as kinds are added.
struct KindTable {
  std::array<std::string, MsgKind::kMaxKinds> names;
  std::size_t count = 1;
};

KindTable& kinds() {
  static KindTable table;
  return table;
}

}  // namespace

MsgKind::MsgKind(std::string_view name) {
  KindTable& table = kinds();
  for (std::size_t id = 0; id < table.count; ++id) {
    if (table.names[id] == name) {
      id_ = static_cast<std::uint16_t>(id);
      return;
    }
  }
  if (table.count == kMaxKinds) {
    std::fprintf(stderr, "net::MsgKind: more than %zu message kinds\n",
                 kMaxKinds);
    std::abort();
  }
  table.names[table.count] = std::string(name);
  id_ = static_cast<std::uint16_t>(table.count++);
}

MsgKind MsgKind::from_id(std::size_t id) {
  if (id >= kinds().count) {
    std::fprintf(stderr, "net::MsgKind: no kind with id %zu\n", id);
    std::abort();
  }
  MsgKind kind;
  kind.id_ = static_cast<std::uint16_t>(id);
  return kind;
}

std::string_view MsgKind::name() const noexcept { return kinds().names[id_]; }

void Payload::type_mismatch(const char* wanted) const {
  std::fprintf(stderr, "net::Payload::as: payload holds %s, not %s\n",
               ops_ != nullptr ? ops_->type_name() : "nothing", wanted);
  std::abort();
}

}  // namespace vdce::net
