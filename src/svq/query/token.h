#ifndef SVQ_QUERY_TOKEN_H_
#define SVQ_QUERY_TOKEN_H_

#include <cstddef>
#include <string_view>

namespace svq::query {

/// Token categories of the SVQ-ACT query dialect.
enum class TokenType {
  kIdentifier,   ///< bare word: inputVideo, obj, ObjectDetector, ...
  kKeyword,      ///< SELECT FROM WHERE ... (case-insensitive; text views
                 ///< the canonical upper-case spelling)
  kString,       ///< 'jumping' or "jumping" (text holds the unquoted value)
  kNumber,       ///< integer literal
  kLeftParen,
  kRightParen,
  kComma,
  kEquals,
  kDot,
  kStar,         ///< '*': the whole-repository target in PROCESS *
  kEnd,          ///< end of input sentinel
};

/// One token. Its text views the statement it was lexed from (a keyword's
/// views static storage), so no token may outlive that statement.
struct Token {
  TokenType type = TokenType::kEnd;
  std::string_view text;
  /// Byte offset into the statement (for error messages).
  size_t position = 0;
};

const char* TokenTypeName(TokenType type);

/// True when `upper` is one of the dialect's reserved words.
bool IsKeyword(std::string_view upper);

}  // namespace svq::query

#endif  // SVQ_QUERY_TOKEN_H_
