// Parser hardening: the serving layer hands attacker-controlled statement
// bytes straight to ParseAndBind, so every malformed, truncated, or
// oversized input must come back as an error Status — never an abort, a
// crash, or a silent success on garbage.

#include <gtest/gtest.h>

#include <string>

#include "statement_corpus.h"
#include "svq/query/binder.h"
#include "svq/query/lexer.h"
#include "svq/query/parser.h"

namespace svq::query {
namespace {

using corpus::kMutations;
using corpus::kValidStatement;
using corpus::MalformedCase;
using corpus::MalformedStatements;

TEST(ParserFuzzTest, MalformedStatementsReturnErrorStatus) {
  for (const MalformedCase& test_case : MalformedStatements()) {
    auto bound = ParseAndBind(test_case.statement);
    EXPECT_FALSE(bound.ok()) << test_case.name;
    if (!bound.ok()) {
      // Errors must be the statement-level kinds a server can safely report
      // back over the wire, with a non-empty message.
      EXPECT_TRUE(bound.status().IsInvalidArgument() ||
                  bound.status().IsUnimplemented())
          << test_case.name << ": " << bound.status();
      EXPECT_FALSE(bound.status().message().empty()) << test_case.name;
    }
  }
}

TEST(ParserFuzzTest, EveryTruncationOfAValidStatementIsHandled) {
  // Chopping a valid statement at every byte boundary simulates a client
  // whose frame was corrupted or hand-built: each prefix must either parse
  // (only the full text does) or produce an error Status.
  int parsed = 0;
  for (size_t cut = 0; cut <= kValidStatement.size(); ++cut) {
    auto bound = ParseAndBind(kValidStatement.substr(0, cut));
    if (bound.ok()) ++parsed;
  }
  EXPECT_EQ(parsed, 1);
  EXPECT_TRUE(ParseAndBind(kValidStatement).ok());
}

TEST(ParserFuzzTest, ByteLevelMutationsNeverAbort) {
  // Flip each byte of a valid statement through a handful of hostile
  // values; parsing must terminate with ok-or-error, never crash. This is a
  // deterministic stand-in for a coverage-guided fuzzer.
  for (size_t i = 0; i < kValidStatement.size(); ++i) {
    for (const char mutation : kMutations) {
      std::string mutated(kValidStatement);
      mutated[i] = mutation;
      auto bound = ParseAndBind(mutated);
      if (!bound.ok()) {
        EXPECT_FALSE(bound.status().message().empty());
      }
    }
  }
}

TEST(ParserFuzzTest, LexerRejectsHostileBytesWithPositions) {
  auto tokens = Lex("SELECT \x01 FROM x");
  ASSERT_FALSE(tokens.ok());
  EXPECT_TRUE(tokens.status().IsInvalidArgument());
}

}  // namespace
}  // namespace svq::query
