// Binary wire codec.
//
// Every message that crosses a simulated network link is serialized with
// Encoder and parsed with Decoder, so the byte counts the benchmarks report
// (e.g. "KB sent per queue operation", paper Fig. 8/10) are measured on real
// encoded frames rather than estimated.
//
// Format: little-endian fixed-width integers, unsigned LEB128 varints, and
// length-prefixed byte strings. Decoder is bounds-checked and never reads past
// the underlying buffer; all failures surface as kDecodeError.
//
// PutFramed/GetFramed add the one checksummed framing the storage paths
// share (log records, snapshot images, the BFT checkpoint's service
// snapshot): u32 payload length + u64 FNV-1a of the payload + payload.

#ifndef EDC_COMMON_CODEC_H_
#define EDC_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "edc/common/hash.h"
#include "edc/common/result.h"

namespace edc {

class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }

  // Unsigned LEB128.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  // Varint length prefix followed by raw bytes.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void PutBytes(const std::vector<uint8_t>& b) {
    PutVarint(b.size());
    PutRaw(b);
  }
  // Raw bytes, no length prefix.
  void PutRaw(const std::vector<uint8_t>& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

  // Drops the contents but keeps the allocation, so a hot path can reuse one
  // encoder as a per-batch arena without reallocating per message.
  void Clear() { buf_.clear(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    uint8_t tmp[sizeof(T)];
    std::memcpy(tmp, &v, sizeof(T));  // host is little-endian (x86/ARM64)
    buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
  }

  std::vector<uint8_t> buf_;
};

class Decoder {
 public:
  explicit Decoder(const std::vector<uint8_t>& buf) : data_(buf.data()), size_(buf.size()) {}
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > size_) {
      return Fail();
    }
    return data_[pos_++];
  }
  Result<bool> GetBool() {
    auto v = GetU8();
    if (!v.ok()) {
      return v.status();
    }
    return *v != 0;
  }
  Result<uint16_t> GetU16() { return GetFixed<uint16_t>(); }
  Result<uint32_t> GetU32() { return GetFixed<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetFixed<uint64_t>(); }
  Result<int64_t> GetI64() {
    auto v = GetFixed<uint64_t>();
    if (!v.ok()) {
      return v.status();
    }
    return static_cast<int64_t>(*v);
  }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_ || shift > 63) {
        return Fail();
      }
      uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        return v;
      }
      shift += 7;
    }
  }

  Result<std::string> GetString() {
    auto n = GetVarint();
    if (!n.ok()) {
      return n.status();
    }
    if (pos_ + *n > size_) {
      return Fail();
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), *n);
    pos_ += *n;
    return s;
  }

  Result<std::vector<uint8_t>> GetBytes() {
    auto n = GetVarint();
    if (!n.ok()) {
      return n.status();
    }
    return GetRaw(*n);
  }

  // The next `n` raw bytes (no length prefix).
  Result<std::vector<uint8_t>> GetRaw(uint64_t n) {
    if (n > size_ - pos_) {
      return Fail();
    }
    std::vector<uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  Status Fail() const { return Status(ErrorCode::kDecodeError, "truncated buffer"); }

  template <typename T>
  Result<T> GetFixed() {
    if (pos_ + sizeof(T) > size_) {
      return Fail();
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Checksummed frame: u32 payload length + u64 FNV-1a of the payload (both
// little-endian) + the payload bytes.
constexpr size_t kFrameHeaderBytes = 12;

inline void PutFramed(Encoder& enc, const std::vector<uint8_t>& payload) {
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  enc.PutU64(Fnv1a64(payload));
  enc.PutRaw(payload);
}

enum class FrameStatus {
  kOk,
  kTruncated,  // the buffer ends inside the frame's header or payload
  kCorrupt,    // a complete frame whose payload fails its checksum
};

// Reads one frame into *payload (set only on kOk). Each caller picks its own
// policy for the two failures: the log keeps its clean prefix on a torn
// tail, a snapshot image must be exactly one intact frame.
inline FrameStatus GetFramed(Decoder& dec, std::vector<uint8_t>* payload) {
  auto length = dec.GetU32();
  auto checksum = dec.GetU64();
  if (!length.ok() || !checksum.ok()) {
    return FrameStatus::kTruncated;
  }
  auto body = dec.GetRaw(*length);
  if (!body.ok()) {
    return FrameStatus::kTruncated;
  }
  if (Fnv1a64(*body) != *checksum) {
    return FrameStatus::kCorrupt;
  }
  *payload = std::move(*body);
  return FrameStatus::kOk;
}

}  // namespace edc

#endif  // EDC_COMMON_CODEC_H_
