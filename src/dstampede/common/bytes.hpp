// Byte buffers and bounds-checked big-endian readers/writers.
//
// Buffer is the unit of payload that flows through channels, queues and
// the transports. It is a move-friendly owning byte vector with cheap
// shared snapshots (SharedBuffer) so one item stored in a channel can
// be handed to many consumers without copying.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dstampede/common/status.hpp"

namespace dstampede {

using Buffer = std::vector<std::uint8_t>;

// Immutable, reference-counted payload: a run of bytes inside a Buffer
// that every copy and slice shares. Channels store these; gets in the
// same process alias the same bytes, and a payload decoded from a
// delivered message is a slice of that message (it keeps the whole
// message alive).
class SharedBuffer {
 public:
  SharedBuffer() = default;
  explicit SharedBuffer(Buffer data)
      : owner_(std::make_shared<const Buffer>(std::move(data))),
        data_(owner_->data()),
        size_(owner_->size()) {}
  // Takes ownership of `data`, as the constructor does.
  SharedBuffer& operator=(Buffer data) {
    return *this = SharedBuffer(std::move(data));
  }

  static SharedBuffer FromString(std::string_view s) {
    return SharedBuffer(Buffer(s.begin(), s.end()));
  }

  // Bytes [offset, offset + length) of this buffer, sharing its owner;
  // cut at the end, so a slice never reaches past its owner.
  SharedBuffer Slice(std::size_t offset, std::size_t length) const {
    SharedBuffer out;
    out.owner_ = owner_;
    offset = std::min(offset, size_);
    out.data_ = data_ + offset;
    out.size_ = std::min(length, size_ - offset);
    return out;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const std::uint8_t* data() const { return data_; }
  std::span<const std::uint8_t> span() const { return {data_, size_}; }
  // Bytes the owner holds allocated: what this buffer keeps alive.
  std::size_t capacity() const { return owner_ ? owner_->capacity() : 0; }
  Buffer ToVector() const { return Buffer(data_, data_ + size_); }
  std::string ToString() const { return std::string(data_, data_ + size_); }

  friend bool operator==(const SharedBuffer& a, const SharedBuffer& b) {
    return std::ranges::equal(a.span(), b.span());
  }

 private:
  std::shared_ptr<const Buffer> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

// Appends big-endian primitives to a Buffer. Never fails: it grows.
class ByteWriter {
 public:
  explicit ByteWriter(Buffer& out) : out_(out) {}

  void U8(std::uint8_t v) { out_.push_back(v); }
  void U16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void U32(std::uint32_t v) {
    U16(static_cast<std::uint16_t>(v >> 16));
    U16(static_cast<std::uint16_t>(v));
  }
  void U64(std::uint64_t v) {
    U32(static_cast<std::uint32_t>(v >> 32));
    U32(static_cast<std::uint32_t>(v));
  }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  // Length-prefixed byte string.
  void Blob(std::span<const std::uint8_t> data) {
    U32(static_cast<std::uint32_t>(data.size()));
    Bytes(data);
  }
  void Str(std::string_view s) {
    Blob(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  std::size_t size() const { return out_.size(); }

 private:
  Buffer& out_;
};

// Bounds-checked reader over a byte span; every accessor returns a
// Result so truncated/corrupt frames surface as errors, never UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Result<std::uint8_t> U8() {
    if (remaining() < 1) return Truncated();
    return data_[pos_++];
  }
  Result<std::uint16_t> U16() {
    if (remaining() < 2) return Truncated();
    std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> U32() {
    if (remaining() < 4) return Truncated();
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }
  Result<std::uint64_t> U64() {
    if (remaining() < 8) return Truncated();
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }
  Result<std::int32_t> I32() {
    DS_ASSIGN_OR_RETURN(std::uint32_t v, U32());
    return static_cast<std::int32_t>(v);
  }
  Result<std::int64_t> I64() {
    DS_ASSIGN_OR_RETURN(std::uint64_t v, U64());
    return static_cast<std::int64_t>(v);
  }
  Result<double> F64() {
    DS_ASSIGN_OR_RETURN(std::uint64_t bits, U64());
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  Result<std::span<const std::uint8_t>> Bytes(std::size_t n) {
    if (remaining() < n) return Truncated();
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  Result<Buffer> Blob() {
    DS_ASSIGN_OR_RETURN(std::uint32_t n, U32());
    DS_ASSIGN_OR_RETURN(auto bytes, Bytes(n));
    return Buffer(bytes.begin(), bytes.end());
  }
  Result<std::string> Str() {
    DS_ASSIGN_OR_RETURN(std::uint32_t n, U32());
    DS_ASSIGN_OR_RETURN(auto bytes, Bytes(n));
    return std::string(bytes.begin(), bytes.end());
  }

 private:
  static Status Truncated() { return InternalError("truncated frame"); }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// Deterministic pattern fill used by tests and the virtual camera.
void FillPattern(Buffer& buf, std::uint64_t seed);
// Validates a FillPattern buffer; returns false on any corruption.
bool CheckPattern(std::span<const std::uint8_t> buf, std::uint64_t seed);

}  // namespace dstampede
