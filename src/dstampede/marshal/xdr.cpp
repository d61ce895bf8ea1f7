#include "dstampede/marshal/xdr.hpp"

#include <cstring>

namespace dstampede::marshal {

void XdrEncoder::Pad() {
  while (out_.size() % 4 != 0) out_.push_back(0);
}

void XdrEncoder::PutU32(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 24));
  out_.push_back(static_cast<std::uint8_t>(v >> 16));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void XdrEncoder::PutU64(std::uint64_t v) {
  PutU32(static_cast<std::uint32_t>(v >> 32));
  PutU32(static_cast<std::uint32_t>(v));
}

void XdrEncoder::PutF64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(bits);
}

void XdrEncoder::PutOpaque(std::span<const std::uint8_t> data) {
  PutU32(static_cast<std::uint32_t>(data.size()));
  // Bulk append: the "pointer manipulation" fast path the paper credits
  // the C client with.
  out_.insert(out_.end(), data.begin(), data.end());
  Pad();
}

void XdrEncoder::PutString(std::string_view s) {
  PutOpaque(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Status XdrDecoder::Need(std::size_t n) const {
  if (remaining() < n) return InternalError("XDR underrun");
  return OkStatus();
}

void XdrDecoder::SkipPad() {
  while (pos_ % 4 != 0 && pos_ < data_.size()) ++pos_;
}

Result<std::uint32_t> XdrDecoder::GetU32() {
  DS_RETURN_IF_ERROR(Need(4));
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

Result<std::uint32_t> XdrDecoder::GetCount(std::size_t min_element_bytes) {
  DS_ASSIGN_OR_RETURN(std::uint32_t count, GetU32());
  if (count > remaining() / min_element_bytes) {
    return InternalError("XDR count exceeds the remaining bytes");
  }
  return count;
}

Result<std::int32_t> XdrDecoder::GetI32() {
  DS_ASSIGN_OR_RETURN(std::uint32_t v, GetU32());
  return static_cast<std::int32_t>(v);
}

Result<std::uint64_t> XdrDecoder::GetU64() {
  DS_ASSIGN_OR_RETURN(std::uint32_t hi, GetU32());
  DS_ASSIGN_OR_RETURN(std::uint32_t lo, GetU32());
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

Result<std::int64_t> XdrDecoder::GetI64() {
  DS_ASSIGN_OR_RETURN(std::uint64_t v, GetU64());
  return static_cast<std::int64_t>(v);
}

Result<bool> XdrDecoder::GetBool() {
  DS_ASSIGN_OR_RETURN(std::uint32_t v, GetU32());
  return v != 0;
}

Result<double> XdrDecoder::GetF64() {
  DS_ASSIGN_OR_RETURN(std::uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

Result<std::span<const std::uint8_t>> XdrDecoder::GetOpaqueView() {
  DS_ASSIGN_OR_RETURN(std::uint32_t n, GetU32());
  DS_RETURN_IF_ERROR(Need(n));
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  SkipPad();
  return view;
}

Result<Buffer> XdrDecoder::GetOpaque() {
  DS_ASSIGN_OR_RETURN(auto view, GetOpaqueView());
  return Buffer(view.begin(), view.end());
}

Result<SharedBuffer> XdrDecoder::GetSharedOpaque() {
  DS_ASSIGN_OR_RETURN(auto view, GetOpaqueView());
  if (!owned_) return SharedBuffer(Buffer(view.begin(), view.end()));
  return owner_.Slice(static_cast<std::size_t>(view.data() - data_.data()),
                      view.size());
}

Result<std::string> XdrDecoder::GetString() {
  DS_ASSIGN_OR_RETURN(auto view, GetOpaqueView());
  return std::string(view.begin(), view.end());
}

}  // namespace dstampede::marshal
