#include "svq/query/parser.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>

#include "svq/query/lexer.h"

namespace svq::query {

namespace {

/// Recursive-descent parser over the token stream. Tokens view the
/// statement, so the parser copies only the texts the SelectStatement keeps.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseStatement() {
    SelectStatement stmt;
    SVQ_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    SVQ_RETURN_NOT_OK(ParseSelectList(&stmt));
    SVQ_RETURN_NOT_OK(ExpectKeyword("FROM"));
    SVQ_RETURN_NOT_OK(Expect(TokenType::kLeftParen));
    SVQ_RETURN_NOT_OK(ParseProcess(&stmt.process));
    SVQ_RETURN_NOT_OK(Expect(TokenType::kRightParen));
    SVQ_RETURN_NOT_OK(ExpectKeyword("WHERE"));
    SVQ_RETURN_NOT_OK(ParsePredicates(&stmt.predicates));
    if (PeekKeyword("ORDER")) {
      Advance();
      SVQ_RETURN_NOT_OK(ExpectKeyword("BY"));
      OrderByClause order_by;
      SVQ_RETURN_NOT_OK(ExpectKeyword("RANK"));
      SVQ_RETURN_NOT_OK(Expect(TokenType::kLeftParen));
      SVQ_RETURN_NOT_OK(ParseIdentList(&order_by.rank_args));
      SVQ_RETURN_NOT_OK(Expect(TokenType::kRightParen));
      stmt.order_by = std::move(order_by);
    }
    if (PeekKeyword("LIMIT")) {
      Advance();
      if (Peek().type != TokenType::kNumber) {
        return Error("expected a number after LIMIT");
      }
      stmt.limit = ParseLimit(Peek().text);
      Advance();
    }
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return stmt;
  }

 private:
  /// A number token's value, saturating at INT64_MAX as strtoll does.
  static int64_t ParseLimit(std::string_view digits) {
    int64_t value = 0;
    if (std::from_chars(digits.data(), digits.data() + digits.size(), value)
            .ec == std::errc::result_out_of_range) {
      value = std::numeric_limits<int64_t>::max();
    }
    return value;
  }
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool PeekKeyword(const char* kw) const {
    return Peek().type == TokenType::kKeyword && Peek().text == kw;
  }
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        message + " at position " + std::to_string(Peek().position) +
        " (found " + TokenTypeName(Peek().type) +
        (Peek().text.empty() ? "" : " '" + std::string(Peek().text) + "'") +
        ")");
  }
  Status Expect(TokenType type) {
    if (Peek().type != type) {
      return Error(std::string("expected ") + TokenTypeName(type));
    }
    Advance();
    return Status::OK();
  }
  Status ExpectKeyword(const char* kw) {
    if (!PeekKeyword(kw)) {
      return Error(std::string("expected ") + kw);
    }
    Advance();
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected an identifier");
    }
    std::string text(Peek().text);
    Advance();
    return text;
  }

  Status ParseIdentList(std::vector<std::string>* out) {
    for (;;) {
      SVQ_ASSIGN_OR_RETURN(std::string ident, ExpectIdentifier());
      out->push_back(std::move(ident));
      if (Peek().type != TokenType::kComma) return Status::OK();
      Advance();
    }
  }

  Status ParseStringList(std::vector<std::string>* out) {
    for (;;) {
      if (Peek().type != TokenType::kString) {
        return Error("expected a string literal");
      }
      out->emplace_back(Peek().text);
      Advance();
      if (Peek().type != TokenType::kComma) return Status::OK();
      Advance();
    }
  }

  Status ParseSelectList(SelectStatement* stmt) {
    for (;;) {
      SelectItem item;
      if (PeekKeyword("MERGE")) {
        Advance();
        item.kind = SelectItem::Kind::kMerge;
        SVQ_RETURN_NOT_OK(Expect(TokenType::kLeftParen));
        SVQ_ASSIGN_OR_RETURN(item.column, ExpectIdentifier());
        SVQ_RETURN_NOT_OK(Expect(TokenType::kRightParen));
      } else if (PeekKeyword("RANK")) {
        Advance();
        item.kind = SelectItem::Kind::kRank;
        SVQ_RETURN_NOT_OK(Expect(TokenType::kLeftParen));
        SVQ_RETURN_NOT_OK(ParseIdentList(&item.rank_args));
        SVQ_RETURN_NOT_OK(Expect(TokenType::kRightParen));
      } else {
        item.kind = SelectItem::Kind::kColumn;
        SVQ_ASSIGN_OR_RETURN(item.column, ExpectIdentifier());
      }
      if (PeekKeyword("AS")) {
        Advance();
        SVQ_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      }
      stmt->select.push_back(std::move(item));
      if (Peek().type != TokenType::kComma) return Status::OK();
      Advance();
    }
  }

  Status ParseProcess(ProcessClause* process) {
    SVQ_RETURN_NOT_OK(ExpectKeyword("PROCESS"));
    if (Peek().type == TokenType::kStar) {
      // PROCESS * — the whole-repository target: the statement fans out
      // over every ingested video (paper §4.2 multi-video setting).
      process->video = "*";
      Advance();
    } else {
      SVQ_ASSIGN_OR_RETURN(process->video, ExpectIdentifier());
    }
    SVQ_RETURN_NOT_OK(ExpectKeyword("PRODUCE"));
    for (;;) {
      ProduceItem item;
      SVQ_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      if (PeekKeyword("USING")) {
        Advance();
        SVQ_ASSIGN_OR_RETURN(item.model, ExpectIdentifier());
      }
      process->items.push_back(std::move(item));
      if (Peek().type != TokenType::kComma) return Status::OK();
      Advance();
    }
  }

  Status ParsePredicates(std::vector<Predicate>* predicates) {
    for (;;) {
      Predicate pred;
      SVQ_ASSIGN_OR_RETURN(pred.target, ExpectIdentifier());
      if (Peek().type == TokenType::kDot) {
        // obj.include('car', 'human')
        Advance();
        pred.kind = Predicate::Kind::kMethodCall;
        SVQ_ASSIGN_OR_RETURN(pred.method, ExpectIdentifier());
        SVQ_RETURN_NOT_OK(Expect(TokenType::kLeftParen));
        SVQ_RETURN_NOT_OK(ParseStringList(&pred.args));
        SVQ_RETURN_NOT_OK(Expect(TokenType::kRightParen));
      } else if (Peek().type == TokenType::kEquals) {
        Advance();
        if (Peek().type == TokenType::kString) {
          // act = 'jumping'
          pred.kind = Predicate::Kind::kEquals;
          pred.args.emplace_back(Peek().text);
          Advance();
        } else if (PeekKeyword("ACTION")) {
          // det = Action('robot_dancing', 'car', 'human')
          Advance();
          pred.kind = Predicate::Kind::kActionCall;
          SVQ_RETURN_NOT_OK(Expect(TokenType::kLeftParen));
          SVQ_RETURN_NOT_OK(ParseStringList(&pred.args));
          SVQ_RETURN_NOT_OK(Expect(TokenType::kRightParen));
        } else {
          return Error("expected a string literal or Action(...)");
        }
      } else {
        return Error("expected '=' or '.' in predicate");
      }
      predicates->push_back(std::move(pred));
      if (!PeekKeyword("AND")) return Status::OK();
      Advance();
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectStatement> Parse(std::string_view statement) {
  SVQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(statement));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace svq::query
