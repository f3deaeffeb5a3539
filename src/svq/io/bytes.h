#ifndef SVQ_IO_BYTES_H_
#define SVQ_IO_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace svq::io {

/// Bounds-checked cursor over an in-memory byte buffer. Storage loaders
/// read whole (small) artifacts into memory and parse them through this
/// reader, so every length field coming off disk is validated against the
/// bytes that actually exist before any allocation sized from it — hostile
/// counts fail the read instead of driving a reserve() (docs/storage.md).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

  /// Reads one trivially-copyable value; false when fewer than sizeof(T)
  /// bytes remain (the cursor is left unchanged on failure).
  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Reads `n` raw bytes into `out`; false when they are not all present.
  bool ReadBytes(std::string* out, size_t n) {
    if (remaining() < n) return false;
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// Views the next `n` bytes without copying them; false when they are
  /// not all present. The view aliases the reader's buffer.
  bool ReadView(std::string_view* out, size_t n) {
    if (remaining() < n) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  /// Reads a uint64-length-prefixed string, rejecting lengths above
  /// `max_len` or beyond the remaining bytes.
  bool ReadLengthPrefixedString(std::string* out, uint64_t max_len) {
    const size_t saved = pos_;
    uint64_t len = 0;
    if (!Read(&len) || len > max_len || len > remaining()) {
      pos_ = saved;
      return false;
    }
    return ReadBytes(out, static_cast<size_t>(len));
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Appends one trivially-copyable value to `out` in its in-memory byte
/// order. Writer-side counterpart of ByteReader::Read.
template <typename T>
void AppendValue(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Appends a uint64-length-prefixed string.
inline void AppendLengthPrefixedString(std::string* out,
                                       std::string_view value) {
  AppendValue(out, static_cast<uint64_t>(value.size()));
  out->append(value.data(), value.size());
}

}  // namespace svq::io

#endif  // SVQ_IO_BYTES_H_
