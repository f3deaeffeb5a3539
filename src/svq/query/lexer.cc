#include "svq/query/lexer.h"

#include <algorithm>
#include <array>
#include <string>

namespace svq::query {

namespace {

/// The dialect's reserved words in their canonical (upper-case) spelling; a
/// keyword token's text views one of these.
constexpr std::array<std::string_view, 14> kKeywords = {
    "SELECT", "MERGE", "AS",    "FROM",  "PROCESS", "PRODUCE", "USING",
    "WHERE",  "AND",   "ORDER", "BY",    "LIMIT",   "RANK",    "ACTION",
};

// The C locale's character classes (std::isspace, isdigit, isalpha,
// isalnum): bytes above 0x7f belong to none of them.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool IsIdentStart(char c) { return IsAlpha(c) || c == '_'; }
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }
char ToUpper(char c) { return c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c; }

/// The type of a one-byte punctuation token, or kEnd for any other byte.
TokenType PunctuationOf(char c) {
  switch (c) {
    case '(':
      return TokenType::kLeftParen;
    case ')':
      return TokenType::kRightParen;
    case ',':
      return TokenType::kComma;
    case '=':
      return TokenType::kEquals;
    case '.':
      return TokenType::kDot;
    case '*':
      return TokenType::kStar;
    default:
      return TokenType::kEnd;
  }
}

/// The canonical spelling of `word` if it is a keyword in any case, else
/// an empty view.
std::string_view KeywordOf(std::string_view word) {
  for (const std::string_view keyword : kKeywords) {
    if (keyword.size() == word.size() &&
        std::equal(word.begin(), word.end(), keyword.begin(),
                   [](char a, char b) { return ToUpper(a) == b; })) {
      return keyword;
    }
  }
  return {};
}

}  // namespace

const char* TokenTypeName(TokenType type) {
  switch (type) {
    case TokenType::kIdentifier:
      return "identifier";
    case TokenType::kKeyword:
      return "keyword";
    case TokenType::kString:
      return "string";
    case TokenType::kNumber:
      return "number";
    case TokenType::kLeftParen:
      return "'('";
    case TokenType::kRightParen:
      return "')'";
    case TokenType::kComma:
      return "','";
    case TokenType::kEquals:
      return "'='";
    case TokenType::kDot:
      return "'.'";
    case TokenType::kStar:
      return "'*'";
    case TokenType::kEnd:
      return "end of input";
  }
  return "?";
}

bool IsKeyword(std::string_view upper) {
  return std::find(kKeywords.begin(), kKeywords.end(), upper) !=
         kKeywords.end();
}

Result<std::vector<Token>> Lex(std::string_view statement) {
  const size_t n = statement.size();
  std::vector<Token> tokens;
  // About one token per 3-4 bytes; a longer statement grows past this.
  tokens.reserve(std::min<size_t>(n / 3, 1024) + 1);
  size_t i = 0;
  while (i < n) {
    const char c = statement[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (const TokenType type = PunctuationOf(c); type != TokenType::kEnd) {
      tokens.push_back({type, statement.substr(start, 1), start});
      ++i;
    } else if (c == '\'' || c == '"') {
      const size_t close = statement.find(c, start + 1);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument(
            "unterminated string literal at position " +
            std::to_string(start));
      }
      tokens.push_back({TokenType::kString,
                        statement.substr(start + 1, close - start - 1), start});
      i = close + 1;
    } else if (IsDigit(c)) {
      while (i < n && IsDigit(statement[i])) ++i;
      tokens.push_back(
          {TokenType::kNumber, statement.substr(start, i - start), start});
    } else if (IsIdentStart(c)) {
      while (i < n && IsIdentChar(statement[i])) ++i;
      const std::string_view word = statement.substr(start, i - start);
      const std::string_view keyword = KeywordOf(word);
      if (!keyword.empty()) {
        tokens.push_back({TokenType::kKeyword, keyword, start});
      } else {
        tokens.push_back({TokenType::kIdentifier, word, start});
      }
    } else {
      return Status::InvalidArgument("unexpected character '" +
                                     std::string(1, c) + "' at position " +
                                     std::to_string(start));
    }
  }
  tokens.push_back({TokenType::kEnd, {}, n});
  return tokens;
}

}  // namespace svq::query
