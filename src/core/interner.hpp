// The string interner and dense-id sets (DESIGN.md §16.6).
//
// Interner maps strings to dense 32-bit ids in first-intern order, storing
// each distinct string once in a bump-allocated byte arena. It backs the
// per-corpus usage attributes (client IPs, server endpoints, SNI names —
// CorpusIndex) and DnPool's raw-spelling and canonical-form memos, so core
// keeps one arena. Ids are local to one interner: code that combines two
// interners' ids remaps them first (CorpusIndex::merge_from).
//
// A per-chain attribute set is a sorted, duplicate-free std::vector of ids
// (insert_sorted_id). Distinct counts over many such sets go through
// DistinctIds, a growable bitmap over the id space: no string is hashed or
// compared once a value is interned.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace certchain::core {

/// Index into one Interner. Dense, starting at 0, in first-intern order.
using InternId = std::uint32_t;

/// "Not interned": what Interner::find answers for an unknown string.
inline constexpr InternId kInvalidInternId = 0xffffffffu;

class Interner {
 public:
  Interner() = default;
  /// Copies re-intern the source's strings in id order, so every id names
  /// the same string in the copy.
  Interner(const Interner& other);
  Interner& operator=(const Interner& other);
  Interner(Interner&&) = default;
  Interner& operator=(Interner&&) = default;

  /// Id of `text`, interning it when new. A string seen before costs one
  /// hash lookup and no allocation.
  InternId intern(std::string_view text);

  /// Id of `text` if already interned, kInvalidInternId otherwise.
  InternId find(std::string_view text) const;

  /// The string behind `id`; a view into interner-owned storage that stays
  /// valid for the interner's lifetime, moves included.
  std::string_view text(InternId id) const { return texts_[id]; }

  std::size_t size() const { return texts_.size(); }

 private:
  /// Copies `bytes` into the arena.
  std::string_view store(std::string_view bytes);

  std::vector<std::string_view> texts_;  // by id
  std::unordered_map<std::string_view, InternId> ids_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t chunk_used_ = 0;
  std::size_t chunk_capacity_ = 0;
};

/// Inserts `id` into a sorted, duplicate-free id vector; no-op when present.
void insert_sorted_id(std::vector<InternId>& ids, InternId id);

/// Distinct count over a union of id sets from one id space: a bitmap grown
/// to the largest id seen.
class DistinctIds {
 public:
  void add(const std::vector<InternId>& ids);
  void merge(const DistinctIds& other);
  std::size_t size() const { return count_; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

}  // namespace certchain::core
