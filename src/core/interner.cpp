#include "core/interner.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace certchain::core {

namespace {

constexpr std::size_t kArenaChunkBytes = 64 * 1024;

}  // namespace

Interner::Interner(const Interner& other) {
  for (const std::string_view text : other.texts_) intern(text);
}

Interner& Interner::operator=(const Interner& other) {
  if (this != &other) *this = Interner(other);
  return *this;
}

std::string_view Interner::store(std::string_view bytes) {
  // Checked first: an empty string interned before any chunk exists still
  // needs one to point into.
  if (chunks_.empty() || chunk_used_ + bytes.size() > chunk_capacity_) {
    const std::size_t chunk = std::max(kArenaChunkBytes, bytes.size());
    chunks_.push_back(std::make_unique<char[]>(chunk));
    chunk_used_ = 0;
    chunk_capacity_ = chunk;
  }
  char* dest = chunks_.back().get() + chunk_used_;
  if (!bytes.empty()) std::memcpy(dest, bytes.data(), bytes.size());
  chunk_used_ += bytes.size();
  return std::string_view(dest, bytes.size());
}

InternId Interner::intern(std::string_view text) {
  const auto it = ids_.find(text);
  if (it != ids_.end()) return it->second;
  const InternId id = static_cast<InternId>(texts_.size());
  const std::string_view stored = store(text);
  texts_.push_back(stored);
  ids_.emplace(stored, id);
  return id;
}

InternId Interner::find(std::string_view text) const {
  const auto it = ids_.find(text);
  return it == ids_.end() ? kInvalidInternId : it->second;
}

void insert_sorted_id(std::vector<InternId>& ids, InternId id) {
  // Ids arrive roughly in first-seen order, so the tail is the common slot.
  if (ids.empty() || ids.back() < id) {
    ids.push_back(id);
    return;
  }
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (*it != id) ids.insert(it, id);
}

void DistinctIds::add(const std::vector<InternId>& ids) {
  for (const InternId id : ids) {
    const std::size_t word = id >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((words_[word] & bit) == 0) {
      words_[word] |= bit;
      ++count_;
    }
  }
}

void DistinctIds::merge(const DistinctIds& other) {
  if (other.words_.size() > words_.size()) words_.resize(other.words_.size(), 0);
  count_ = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (i < other.words_.size()) words_[i] |= other.words_[i];
    count_ += static_cast<std::size_t>(std::popcount(words_[i]));
  }
}

}  // namespace certchain::core
