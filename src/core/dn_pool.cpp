#include "core/dn_pool.hpp"

namespace certchain::core {

DnPool::Interned DnPool::intern_raw(std::string_view raw) {
  const InternId spelling = raw_spellings_.intern(raw);
  if (spelling < by_raw_id_.size()) return by_raw_id_[spelling];
  by_raw_id_.push_back(memo_raw(raw));
  return by_raw_id_.back();
}

DnPool::Interned DnPool::memo_raw(std::string_view raw) {
  x509::DistinguishedName parsed = x509::DistinguishedName::parse_lenient(raw);
  const DnId id = canonicals_.intern(parsed.canonical());
  if (id == entries_.size()) {
    entries_.push_back(
        std::make_unique<x509::DistinguishedName>(std::move(parsed)));
    return Interned{id, entries_.back().get()};
  }
  // Canonical collision with a different spelling: keep this parse as a
  // variant so name_for_raw() renders these exact bytes.
  if (parsed == *entries_[id]) return Interned{id, entries_[id].get()};
  variants_.push_back(
      std::make_unique<x509::DistinguishedName>(std::move(parsed)));
  return Interned{id, variants_.back().get()};
}

}  // namespace certchain::core
