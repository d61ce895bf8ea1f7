// XDR-style marshalling (RFC 1832 flavour): big-endian, every item
// padded to a 4-byte boundary. This is what the paper's C client
// library uses to talk to the server library (§3.2.1).
//
// The encoder works by pointer manipulation over a contiguous buffer —
// deliberately cheap, to contrast with the Java-style marshaller.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/status.hpp"

namespace dstampede::marshal {

class XdrEncoder {
 public:
  XdrEncoder() = default;
  explicit XdrEncoder(std::size_t reserve) { out_.reserve(reserve); }

  void PutU32(std::uint32_t v);
  void PutI32(std::int32_t v) { PutU32(static_cast<std::uint32_t>(v)); }
  void PutU64(std::uint64_t v);
  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }
  void PutBool(bool v) { PutU32(v ? 1 : 0); }
  void PutF64(double v);
  // Variable-length opaque: u32 length, bytes, zero padding to 4.
  void PutOpaque(std::span<const std::uint8_t> data);
  void PutString(std::string_view s);

  const Buffer& buffer() const { return out_; }
  Buffer Take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  void Pad();
  Buffer out_;
};

class XdrDecoder {
 public:
  // Reads `data`, which must outlive the decoder; opaque fields come
  // out as copies.
  explicit XdrDecoder(std::span<const std::uint8_t> data) : data_(data) {}
  // Reads the bytes of `owner`; GetSharedOpaque hands out slices of it.
  explicit XdrDecoder(const SharedBuffer& owner)
      : data_(owner.span()), owner_(owner), owned_(true) {}

  Result<std::uint32_t> GetU32();
  Result<std::int32_t> GetI32();
  Result<std::uint64_t> GetU64();
  Result<std::int64_t> GetI64();
  Result<bool> GetBool();
  Result<double> GetF64();
  Result<Buffer> GetOpaque();
  // Zero-copy view of an opaque field (valid while the input lives).
  Result<std::span<const std::uint8_t>> GetOpaqueView();
  // An opaque field as a SharedBuffer: a slice of the owner when the
  // decoder was built over one, else a copy.
  Result<SharedBuffer> GetSharedOpaque();
  Result<std::string> GetString();
  // An element count (u32) that the remaining bytes can hold, given
  // that one element encodes to at least `min_element_bytes` (> 0). A
  // hostile count fails here instead of reaching reserve().
  Result<std::uint32_t> GetCount(std::size_t min_element_bytes);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(std::size_t n) const;
  void SkipPad();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  SharedBuffer owner_;
  bool owned_ = false;
};

}  // namespace dstampede::marshal
