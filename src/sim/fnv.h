// Canonical FNV-1a hashing for every determinism digest in the simulator.
//
// Multiple subsystems chain deterministic trace digests — the cluster
// shard hash, the vswitch packet trace, the fault bus, the gray-failure
// and fault injectors, blkfs, the orchestrator, snapshot streams, causal
// trace ids. They must all use the *same* mixing function (byte-wise
// FNV-1a over little-endian u64 words) so digests composed across
// subsystems stay comparable and a refactor can never silently change one
// copy of the constants. `Digest` is that one accumulator; DESIGN.md §14
// lists it as part of the determinism contract, and CI rejects a second
// spelling of the basis or the mixer anywhere else.
#ifndef SRC_SIM_FNV_H_
#define SRC_SIM_FNV_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>

namespace cki {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// A running FNV-1a digest. Starts at the offset basis; every Mix folds the
// 8 bytes of a word (little-endian) in order. The batched Mix over a word
// list is bit-identical to one Mix per word — it exists for hot paths (the
// vswitch mixes six words per forwarded frame in one call).
class Digest {
 public:
  constexpr Digest() = default;

  // Continues a chain from a digest value stored earlier (CKISNAP1 carries
  // the blkfs trace digest).
  static constexpr Digest Resume(uint64_t value) {
    Digest d;
    d.h_ = value;
    return d;
  }

  constexpr Digest& Mix(uint64_t v) {
    h_ = MixWord(h_, v);
    return *this;
  }
  constexpr Digest& Mix(std::span<const uint64_t> words) {
    uint64_t h = h_;
    for (uint64_t w : words) {
      h = MixWord(h, w);
    }
    h_ = h;
    return *this;
  }
  constexpr Digest& Mix(std::initializer_list<uint64_t> words) {
    return Mix(std::span<const uint64_t>(words.begin(), words.size()));
  }

  // FNV-1a over a raw byte range (snapshot streams).
  constexpr Digest& MixBytes(std::span<const uint8_t> bytes) {
    uint64_t h = h_;
    for (uint8_t b : bytes) {
      h = MixByte(h, b);
    }
    h_ = h;
    return *this;
  }

  constexpr uint64_t value() const { return h_; }

 private:
  static constexpr uint64_t MixByte(uint64_t h, uint8_t b) { return (h ^ b) * kFnvPrime; }
  static constexpr uint64_t MixWord(uint64_t h, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = MixByte(h, static_cast<uint8_t>(v >> (i * 8)));
    }
    return h;
  }

  uint64_t h_ = kFnvOffsetBasis;
};

// One word folded into a bare digest value: `Digest::Resume(h).Mix(v)`.
// It serves perfbench, which chains bare values; everything else holds a
// Digest.
inline constexpr uint64_t FnvMix64(uint64_t h, uint64_t v) {
  return Digest::Resume(h).Mix(v).value();
}

}  // namespace cki

#endif  // SRC_SIM_FNV_H_
