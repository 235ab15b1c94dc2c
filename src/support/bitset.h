// Concurrent fixed-capacity dynamic bitset.
//
// Used to track "dirty" vertices in the analytics engine's master/mirror
// synchronization and to record createMirror flags during edge assignment.
// Set/test are safe under concurrent writers (atomic fetch_or on 64-bit
// words); resize and reset are not concurrent with writers. setIf and
// orWith are single-writer: a plain load, OR and store per word, with no
// locked instruction and no branch on the condition.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace cusp::support {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(uint64_t numBits) { resize(numBits); }

  DynamicBitset(const DynamicBitset& other) { copyFrom(other); }
  DynamicBitset& operator=(const DynamicBitset& other) {
    if (this != &other) {
      copyFrom(other);
    }
    return *this;
  }
  DynamicBitset(DynamicBitset&&) = default;
  DynamicBitset& operator=(DynamicBitset&&) = default;

  void resize(uint64_t numBits) {
    numBits_ = numBits;
    words_ = std::vector<std::atomic<uint64_t>>((numBits + 63) / 64);
  }

  uint64_t size() const { return numBits_; }

  // Thread-safe. Returns true if the bit was newly set.
  bool set(uint64_t index) {
    const uint64_t mask = 1ULL << (index & 63);
    const uint64_t old =
        words_[index >> 6].fetch_or(mask, std::memory_order_relaxed);
    return (old & mask) == 0;
  }

  // Single-writer: sets the bit iff `cond`, as a load, an OR of
  // `cond << bit` and a store. No other thread may write the bitset
  // concurrently (a concurrent writer to the same word could lose its bit).
  void setIf(uint64_t index, bool cond) {
    std::atomic<uint64_t>& word = words_[index >> 6];
    word.store(word.load(std::memory_order_relaxed) |
                   (static_cast<uint64_t>(cond) << (index & 63)),
               std::memory_order_relaxed);
  }

  // Single-writer: ORs `other` into this bitset (this becomes the union).
  // Both must have the same size; `other` must not be written concurrently.
  void orWith(const DynamicBitset& other) {
    if (other.numBits_ != numBits_) {
      throw std::invalid_argument("DynamicBitset::orWith: size mismatch");
    }
    for (size_t w = 0; w < words_.size(); ++w) {
      words_[w].store(words_[w].load(std::memory_order_relaxed) |
                          other.words_[w].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
  }

  // Thread-safe with concurrent set() on other bits; plain read.
  bool test(uint64_t index) const {
    const uint64_t mask = 1ULL << (index & 63);
    return (words_[index >> 6].load(std::memory_order_relaxed) & mask) != 0;
  }

  // Not thread-safe with concurrent set().
  void clear(uint64_t index) {
    const uint64_t mask = 1ULL << (index & 63);
    words_[index >> 6].fetch_and(~mask, std::memory_order_relaxed);
  }

  void resetAll() {
    for (auto& word : words_) {
      word.store(0, std::memory_order_relaxed);
    }
  }

  uint64_t count() const {
    uint64_t total = 0;
    for (const auto& word : words_) {
      total += static_cast<uint64_t>(
          __builtin_popcountll(word.load(std::memory_order_relaxed)));
    }
    return total;
  }

  bool any() const {
    for (const auto& word : words_) {
      if (word.load(std::memory_order_relaxed) != 0) {
        return true;
      }
    }
    return false;
  }

  // Appends the indices of all set bits to `out` in ascending order.
  void collectSetBits(std::vector<uint64_t>& out) const {
    for (uint64_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w].load(std::memory_order_relaxed);
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        const uint64_t index = (w << 6) + static_cast<uint64_t>(bit);
        if (index < numBits_) {
          out.push_back(index);
        }
        word &= word - 1;
      }
    }
  }

 private:
  void copyFrom(const DynamicBitset& other) {
    numBits_ = other.numBits_;
    words_ = std::vector<std::atomic<uint64_t>>(other.words_.size());
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i].store(other.words_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
  }

  uint64_t numBits_ = 0;
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace cusp::support
