// Byte-stream primitives of the container snapshot format (DESIGN.md §10).
//
// SnapWriter serializes little-endian scalars and raw byte runs; its
// Hash() is the FNV-1a Digest over every byte written — the same mixer
// as the vswitch/fault trace hashes, so "bit-identical stream" and
// "equal content hash" are one property. SnapReader is the strict
// inverse: every read is bounds-checked, and any overrun or bad magic
// latches a sticky corrupt flag instead of throwing — Restore turns that
// flag into a typed FaultReport, never a host abort.
//
// Determinism contract: writers emit fields in a canonical order (callers
// sort map contents before writing), so checkpoint -> restore ->
// checkpoint reproduces the byte-identical stream.
//
// Thread-safety: none; a stream belongs to one checkpoint/restore call.
// Ownership: self-contained value types over std::vector<uint8_t>.
#ifndef SRC_SNAP_SNAP_STREAM_H_
#define SRC_SNAP_SNAP_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/fnv.h"

namespace cki {

class SnapWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v) { PutLe(v, 2); }
  void PutU32(uint32_t v) { PutLe(v, 4); }
  void PutU64(uint64_t v) { PutLe(v, 8); }
  void PutI64(int64_t v) { PutLe(static_cast<uint64_t>(v), 8); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutBytes(const uint8_t* data, size_t n) {
    bytes_.insert(bytes_.end(), data, data + n);
  }
  void PutBlob(const std::vector<uint8_t>& blob) {
    PutU32(static_cast<uint32_t>(blob.size()));
    PutBytes(blob.data(), blob.size());
  }

  // FNV-1a over everything written so far.
  uint64_t Hash() const { return Digest().MixBytes(bytes_).value(); }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  void PutLe(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (i * 8)));
    }
  }

  std::vector<uint8_t> bytes_;
};

class SnapReader {
 public:
  SnapReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit SnapReader(const std::vector<uint8_t>& bytes)
      : SnapReader(bytes.data(), bytes.size()) {}

  uint8_t GetU8() { return static_cast<uint8_t>(GetLe(1)); }
  uint16_t GetU16() { return static_cast<uint16_t>(GetLe(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLe(4)); }
  uint64_t GetU64() { return GetLe(8); }
  int64_t GetI64() { return static_cast<int64_t>(GetLe(8)); }
  bool GetBool() { return GetU8() != 0; }

  std::vector<uint8_t> GetBlob() {
    uint32_t n = GetU32();
    if (!CheckAvail(n)) {
      return {};
    }
    std::vector<uint8_t> blob(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return blob;
  }

  // A count field about to drive a loop/reserve: anything larger than the
  // bytes left cannot be honest, so it latches corruption (otherwise a
  // flipped length bit could drive a multi-gigabyte allocation).
  uint64_t GetCount(uint64_t element_bytes) {
    uint64_t n = GetU32();
    if (element_bytes > 0 && n > (size_ - pos_) / element_bytes + 1) {
      corrupt_ = true;
      return 0;
    }
    return corrupt_ ? 0 : n;
  }

  size_t pos() const { return pos_; }
  size_t size() const { return size_; }
  size_t remaining() const { return size_ - pos_; }
  bool ok() const { return !corrupt_; }
  void MarkCorrupt() { corrupt_ = true; }

 private:
  bool CheckAvail(size_t n) {
    if (corrupt_ || n > size_ - pos_) {
      corrupt_ = true;
      return false;
    }
    return true;
  }

  uint64_t GetLe(int n) {
    if (!CheckAvail(static_cast<size_t>(n))) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (i * 8);
    }
    pos_ += static_cast<size_t>(n);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool corrupt_ = false;
};

}  // namespace cki

#endif  // SRC_SNAP_SNAP_STREAM_H_
