#include "dstampede/marshal/java_style.hpp"

#include <cstring>

namespace dstampede::marshal {
namespace javaish {

void BoxedU32::WriteTo(Buffer& out) const {
  // Byte-at-a-time, as DataOutputStream.writeInt does.
  out.push_back(static_cast<std::uint8_t>(value_ >> 24));
  out.push_back(static_cast<std::uint8_t>(value_ >> 16));
  out.push_back(static_cast<std::uint8_t>(value_ >> 8));
  out.push_back(static_cast<std::uint8_t>(value_));
}

void BoxedU64::WriteTo(Buffer& out) const {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(value_ >> shift));
  }
}

void BoxedF64::WriteTo(Buffer& out) const {
  std::uint64_t bits;
  std::memcpy(&bits, &value_, sizeof bits);
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
}

BoxedOpaque::BoxedOpaque(std::span<const std::uint8_t> data) {
  // First copy: payload into the boxed array, element by element (the
  // object-stream staging a JVM client performs).
  bytes_.reserve(data.size());
  for (std::uint8_t b : data) bytes_.push_back(b);
}

std::size_t BoxedOpaque::EncodedSize() const {
  std::size_t n = 4 + bytes_.size();
  while (n % 4 != 0) ++n;
  return n;
}

void BoxedOpaque::WriteTo(Buffer& out) const {
  const auto len = static_cast<std::uint32_t>(bytes_.size());
  out.push_back(static_cast<std::uint8_t>(len >> 24));
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len));
  // Second copy: byte at a time into the stream.
  for (std::uint8_t b : bytes_) out.push_back(b);
  while (out.size() % 4 != 0) out.push_back(0);
}

}  // namespace javaish

void JavaStyleEncoder::PutU32(std::uint32_t v) {
  fields_.push_back(std::make_unique<javaish::BoxedU32>(v));
}
void JavaStyleEncoder::PutU64(std::uint64_t v) {
  fields_.push_back(std::make_unique<javaish::BoxedU64>(v));
}
void JavaStyleEncoder::PutF64(double v) {
  fields_.push_back(std::make_unique<javaish::BoxedF64>(v));
}
void JavaStyleEncoder::PutOpaque(std::span<const std::uint8_t> data) {
  fields_.push_back(std::make_unique<javaish::BoxedOpaque>(data));
}
void JavaStyleEncoder::PutString(std::string_view s) {
  PutOpaque(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::size_t JavaStyleEncoder::size() const {
  std::size_t n = 0;
  for (const auto& f : fields_) n += f->EncodedSize();
  return n;
}

Buffer JavaStyleEncoder::Take() {
  Buffer out;
  // A JVM's ByteArrayOutputStream grows geometrically from a small
  // default; we mimic that by not pre-reserving.
  for (const auto& f : fields_) f->WriteTo(out);
  fields_.clear();
  return out;
}

Status JavaStyleDecoder::Need(std::size_t n) const {
  if (remaining() < n) return InternalError("java-style underrun");
  return OkStatus();
}

void JavaStyleDecoder::SkipPad() {
  while (pos_ % 4 != 0 && pos_ < data_.size()) ++pos_;
}

Result<std::uint32_t> JavaStyleDecoder::GetU32() {
  DS_RETURN_IF_ERROR(Need(4));
  // Reconstruct through a boxed object, as readObject would.
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  auto boxed = std::make_unique<javaish::BoxedU32>(v);
  (void)boxed;
  return v;
}

Result<std::uint32_t> JavaStyleDecoder::GetCount(
    std::size_t min_element_bytes) {
  DS_ASSIGN_OR_RETURN(std::uint32_t count, GetU32());
  if (count > remaining() / min_element_bytes) {
    return InternalError("java-style count exceeds the remaining bytes");
  }
  return count;
}

Result<std::int32_t> JavaStyleDecoder::GetI32() {
  DS_ASSIGN_OR_RETURN(std::uint32_t v, GetU32());
  return static_cast<std::int32_t>(v);
}

Result<std::uint64_t> JavaStyleDecoder::GetU64() {
  DS_ASSIGN_OR_RETURN(std::uint32_t hi, GetU32());
  DS_ASSIGN_OR_RETURN(std::uint32_t lo, GetU32());
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

Result<std::int64_t> JavaStyleDecoder::GetI64() {
  DS_ASSIGN_OR_RETURN(std::uint64_t v, GetU64());
  return static_cast<std::int64_t>(v);
}

Result<bool> JavaStyleDecoder::GetBool() {
  DS_ASSIGN_OR_RETURN(std::uint32_t v, GetU32());
  return v != 0;
}

Result<double> JavaStyleDecoder::GetF64() {
  DS_ASSIGN_OR_RETURN(std::uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

Result<Buffer> JavaStyleDecoder::GetOpaque() {
  DS_ASSIGN_OR_RETURN(std::uint32_t n, GetU32());
  DS_RETURN_IF_ERROR(Need(n));
  // Copy 1: stream → boxed byte array, element by element.
  std::vector<std::uint8_t> staged;
  staged.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) staged.push_back(data_[pos_ + i]);
  pos_ += n;
  SkipPad();
  // Copy 2: boxed array → caller's buffer.
  Buffer out;
  out.reserve(staged.size());
  for (std::uint8_t b : staged) out.push_back(b);
  return out;
}

Result<std::string> JavaStyleDecoder::GetString() {
  DS_ASSIGN_OR_RETURN(Buffer raw, GetOpaque());
  return std::string(raw.begin(), raw.end());
}

}  // namespace dstampede::marshal
