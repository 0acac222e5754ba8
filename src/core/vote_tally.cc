#include "core/vote_tally.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/check.h"
#include "common/string_util.h"

namespace mcsm::core {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// splitmix64's finalizer: spreads the mixed fields over the low bits the
// table indexes by.
uint64_t Finish(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

uint64_t VoteTally::Hash(size_t column, const TranslationFormula& formula) {
  // Every field Region::operator== compares, so equal structures hash alike.
  uint64_t h = column;
  for (const Region& r : formula.regions()) {
    h = Mix(h, static_cast<uint64_t>(r.kind) | (r.to_end ? 4u : 0u));
    h = Mix(h, r.column);
    h = Mix(h, (static_cast<uint64_t>(r.start) << 32) ^ r.end);
    h = Mix(h, r.unknown_width);
    if (!r.literal.empty()) {
      h = Mix(h, std::hash<std::string_view>{}(r.literal));
    }
  }
  return Finish(h);
}

void VoteTally::Add(size_t column, TranslationFormula formula, double weight) {
  AddHashed(Hash(column, formula), column, std::move(formula), weight, 1);
}

void VoteTally::AddHashed(uint64_t hash, size_t column,
                          TranslationFormula&& formula, double weight,
                          size_t count) {
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const uint32_t slot = slots_[s];
    if (slot == 0) {
      slots_[s] = static_cast<uint32_t>(entries_.size() + 1);
      entries_.push_back({hash, column, std::move(formula), count, weight});
      return;
    }
    Entry& e = entries_[slot - 1];
    if (e.hash == hash && e.column == column && e.formula == formula) {
      e.count += count;
      e.weighted_count += weight;
      return;
    }
  }
}

void VoteTally::Grow() {
  // Load factor <= 0.5 keeps probe chains short and leaves an empty slot to
  // end every miss.
  slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
  const size_t mask = slots_.size() - 1;
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t s = entries_[i].hash & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(i + 1);
  }
}

void VoteTally::Merge(VoteTally&& other) {
  for (Entry& e : other.entries_) {
    AddHashed(e.hash, e.column, std::move(e.formula), e.weighted_count,
              e.count);
  }
  other.entries_.clear();
  other.slots_.clear();
}

std::vector<FormulaVotes> VoteTally::Ranked() && {
  std::vector<FormulaVotes> rendered;
  rendered.reserve(entries_.size());
  for (Entry& e : entries_) {
    rendered.push_back({StrFormat("c%zu|", e.column) + e.formula.ToString(),
                        std::move(e.formula), e.column, e.count,
                        e.weighted_count});
  }
  entries_.clear();
  slots_.clear();
  // Stable: among structures that render alike, the first seen leads its
  // group and lends it its formula.
  std::vector<uint32_t> order(rendered.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return rendered[a].key < rendered[b].key;
  });
  std::vector<FormulaVotes> out;
  out.reserve(rendered.size());
  for (uint32_t i : order) {
    FormulaVotes& v = rendered[i];
    if (!out.empty() && out.back().key == v.key) {
      MCSM_DCHECK(out.back().column == v.column);
      out.back().count += v.count;
      out.back().weighted_count += v.weighted_count;
      continue;
    }
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace mcsm::core
