// "Java-style" marshalling: wire-compatible with the XDR codec, but
// implemented the way a 2002 JVM client would — every field becomes a
// heap-allocated boxed object with a virtual writeTo/readFrom, opaque
// payloads are copied byte-at-a-time through those objects, and the
// whole object stream is staged in an intermediate vector before being
// flattened into the output buffer.
//
// This is the substitution for the paper's Java client library
// (§3.2.1, Experiment 3): the paper attributes the Java client's ~3x
// latency to "construction of objects" during marshalling, versus
// "mostly pointer manipulation" in C. Because the octets are identical
// to XdrEncoder's, a Java-style client interoperates with the same
// server; only the CPU cost model differs — exactly the paper's setup.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/status.hpp"

namespace dstampede::marshal {

namespace javaish {

// Base of the boxed-field hierarchy; one heap object per encoded field.
class Field {
 public:
  virtual ~Field() = default;
  virtual void WriteTo(Buffer& out) const = 0;
  virtual std::size_t EncodedSize() const = 0;
};

class BoxedU32 : public Field {
 public:
  explicit BoxedU32(std::uint32_t v) : value_(v) {}
  void WriteTo(Buffer& out) const override;
  std::size_t EncodedSize() const override { return 4; }

 private:
  std::uint32_t value_;
};

class BoxedU64 : public Field {
 public:
  explicit BoxedU64(std::uint64_t v) : value_(v) {}
  void WriteTo(Buffer& out) const override;
  std::size_t EncodedSize() const override { return 8; }

 private:
  std::uint64_t value_;
};

class BoxedF64 : public Field {
 public:
  explicit BoxedF64(double v) : value_(v) {}
  void WriteTo(Buffer& out) const override;
  std::size_t EncodedSize() const override { return 8; }

 private:
  double value_;
};

// Opaque data: the constructor copies the payload into a per-byte
// boxed array (Java's byte[] handed through an object stream), and
// WriteTo copies it again, one byte per virtual-ish step.
class BoxedOpaque : public Field {
 public:
  explicit BoxedOpaque(std::span<const std::uint8_t> data);
  void WriteTo(Buffer& out) const override;
  std::size_t EncodedSize() const override;

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace javaish

// Same interface shape as XdrEncoder; produces identical octets.
class JavaStyleEncoder {
 public:
  void PutU32(std::uint32_t v);
  void PutI32(std::int32_t v) { PutU32(static_cast<std::uint32_t>(v)); }
  void PutU64(std::uint64_t v);
  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }
  void PutBool(bool v) { PutU32(v ? 1 : 0); }
  void PutF64(double v);
  void PutOpaque(std::span<const std::uint8_t> data);
  void PutString(std::string_view s);

  // Flattens the staged object stream into one contiguous buffer.
  Buffer Take();
  std::size_t size() const;

 private:
  std::vector<std::unique_ptr<javaish::Field>> fields_;
};

// Wire-compatible decoder that reconstructs boxed objects per field
// before handing values back (Java's readObject path).
class JavaStyleDecoder {
 public:
  explicit JavaStyleDecoder(std::span<const std::uint8_t> data)
      : data_(data) {}
  // Reads the bytes of `frame`, which must outlive the decoder; opaque
  // fields are still copied, one boxed byte at a time.
  explicit JavaStyleDecoder(const SharedBuffer& frame)
      : data_(frame.span()) {}

  Result<std::uint32_t> GetU32();
  Result<std::int32_t> GetI32();
  Result<std::uint64_t> GetU64();
  Result<std::int64_t> GetI64();
  Result<bool> GetBool();
  Result<double> GetF64();
  Result<Buffer> GetOpaque();
  Result<std::string> GetString();
  // Same contract as XdrDecoder::GetCount.
  Result<std::uint32_t> GetCount(std::size_t min_element_bytes);

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(std::size_t n) const;
  void SkipPad();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace dstampede::marshal
