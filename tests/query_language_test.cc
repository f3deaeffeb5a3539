#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "statement_corpus.h"
#include "svq/query/binder.h"
#include "svq/query/lexer.h"
#include "svq/query/parser.h"

namespace svq::query {
namespace {

// ---------------------------------------------------------------------------
// Lexer

TEST(LexerTest, TokenizesPunctuationAndWords) {
  auto tokens = Lex("SELECT obj.include('car', \"human\") LIMIT 5");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> types;
  for (const Token& t : *tokens) types.push_back(t.type);
  EXPECT_EQ(types,
            (std::vector<TokenType>{
                TokenType::kKeyword, TokenType::kIdentifier, TokenType::kDot,
                TokenType::kIdentifier, TokenType::kLeftParen,
                TokenType::kString, TokenType::kComma, TokenType::kString,
                TokenType::kRightParen, TokenType::kKeyword,
                TokenType::kNumber, TokenType::kEnd}));
  EXPECT_EQ((*tokens)[5].text, "car");
  EXPECT_EQ((*tokens)[7].text, "human");
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Lex("select FROM WhErE");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "FROM");
  EXPECT_EQ((*tokens)[2].text, "WHERE");
}

TEST(LexerTest, UnterminatedString) {
  auto tokens = Lex("WHERE act='jumping");
  EXPECT_FALSE(tokens.ok());
  EXPECT_TRUE(tokens.status().IsInvalidArgument());
}

TEST(LexerTest, UnexpectedCharacter) {
  EXPECT_FALSE(Lex("SELECT #").ok());
}

TEST(LexerTest, PositionsRecorded) {
  auto tokens = Lex("a = b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].position, 0u);
  EXPECT_EQ((*tokens)[1].position, 2u);
  EXPECT_EQ((*tokens)[2].position, 4u);
}

// ---------------------------------------------------------------------------
// Parser

constexpr const char* kOnlineSql =
    "SELECT MERGE(clipID) AS Sequence "
    "FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, "
    "act USING ActionRecognizer) "
    "WHERE act='jumping' AND obj.include('car', 'human')";

constexpr const char* kOfflineSql =
    "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
    "FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, "
    "act USING ActionRecognizer) "
    "WHERE act='jumping' AND obj.include('car', 'human') "
    "ORDER BY RANK(act, obj) LIMIT 7";

constexpr const char* kVisionModelSql =
    "SELECT frameSequence FROM (PROCESS inputVideo PRODUCE frameSequence, "
    "det USING VisionModel) "
    "WHERE det = Action('robot_dancing', 'car', 'human')";

TEST(ParserTest, ParsesOnlineStatement) {
  auto stmt = Parse(kOnlineSql);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->select.size(), 1u);
  EXPECT_EQ(stmt->select[0].kind, SelectItem::Kind::kMerge);
  EXPECT_EQ(stmt->select[0].column, "clipID");
  EXPECT_EQ(stmt->select[0].alias, "Sequence");
  EXPECT_EQ(stmt->process.video, "inputVideo");
  ASSERT_EQ(stmt->process.items.size(), 3u);
  EXPECT_EQ(stmt->process.items[1].alias, "obj");
  EXPECT_EQ(stmt->process.items[1].model, "ObjectDetector");
  ASSERT_EQ(stmt->predicates.size(), 2u);
  EXPECT_EQ(stmt->predicates[0].kind, Predicate::Kind::kEquals);
  EXPECT_EQ(stmt->predicates[0].args[0], "jumping");
  EXPECT_EQ(stmt->predicates[1].kind, Predicate::Kind::kMethodCall);
  EXPECT_EQ(stmt->predicates[1].method, "include");
  EXPECT_EQ(stmt->predicates[1].args,
            (std::vector<std::string>{"car", "human"}));
  EXPECT_FALSE(stmt->order_by.has_value());
  EXPECT_FALSE(stmt->limit.has_value());
}

TEST(ParserTest, ParsesOfflineStatement) {
  auto stmt = Parse(kOfflineSql);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->select.size(), 2u);
  EXPECT_EQ(stmt->select[1].kind, SelectItem::Kind::kRank);
  EXPECT_EQ(stmt->select[1].rank_args,
            (std::vector<std::string>{"act", "obj"}));
  ASSERT_TRUE(stmt->order_by.has_value());
  ASSERT_TRUE(stmt->limit.has_value());
  EXPECT_EQ(*stmt->limit, 7);
}

TEST(ParserTest, ParsesVisionModelForm) {
  auto stmt = Parse(kVisionModelSql);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->predicates.size(), 1u);
  EXPECT_EQ(stmt->predicates[0].kind, Predicate::Kind::kActionCall);
  EXPECT_EQ(stmt->predicates[0].target, "det");
  EXPECT_EQ(stmt->predicates[0].args,
            (std::vector<std::string>{"robot_dancing", "car", "human"}));
}

TEST(ParserTest, ErrorsCarryPositionAndExpectation) {
  auto stmt = Parse("SELECT FROM x");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("position"), std::string::npos);
}

TEST(ParserTest, RejectsTrailingGarbage) {
  std::string sql = std::string(kOnlineSql) + " extra";
  EXPECT_FALSE(Parse(sql).ok());
}

TEST(ParserTest, RejectsMissingWhere) {
  EXPECT_FALSE(
      Parse("SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID)").ok());
}

TEST(ParserTest, RejectsBadLimit) {
  std::string sql = std::string(kOnlineSql) + " ORDER BY RANK(act) LIMIT x";
  EXPECT_FALSE(Parse(sql).ok());
}

// ---------------------------------------------------------------------------
// Pinned lexer and parser output

/// 64-bit FNV-1a.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void Value(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Text(std::string_view s) {
    Value(s.size());
    Bytes(s.data(), s.size());
  }
};

/// Every statement of this file, parser_fuzz_test's malformed cases,
/// truncations and byte mutations, and the character classes a lexer is
/// easy to get wrong.
std::vector<std::string> LexerCorpus() {
  std::vector<std::string> corpus = {
      "SELECT obj.include('car', \"human\") LIMIT 5",
      "select FROM WhErE",
      "WHERE act='jumping",
      "SELECT #",
      "a = b",
      kOnlineSql,
      kOfflineSql,
      kVisionModelSql,
      "SELECT FROM x",
      std::string(kOnlineSql) + " extra",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID)",
      std::string(kOnlineSql) + " ORDER BY RANK(act) LIMIT x",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND obj.inc('car')",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj) "
      "WHERE obj.include('car')",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, act) "
      "WHERE act='x' AND act='y'",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, act) "
      "WHERE act='x' AND act='x'",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND act='z' AND act='y' AND "
      "obj.include('human', 'car')",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND act='y' AND act='z' AND "
      "obj.include('car', 'human')",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND obj.include_any('car', 'bus')",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND rel.left_of('human', 'car')",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND rel.left_of('human')",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, act) "
      "WHERE act='x' AND obj.include('car')",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND obj.excludes('car')",
      "SELECT MERGE(clipID), RANK(act, obj) "
      "FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND obj.include('car')",
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND obj.include('car', 'car')",
      // Mixed-case keywords, and words that only start like one.
      "sElEcT mErGe(clipID) aS Seq, RaNk(act) FrOm (pRoCeSs * pRoDuCe "
      "clipID, act UsInG A) wHeRe act='x' AnD det = aCtIoN('y') oRdEr By "
      "RaNk(act) LiMiT 4",
      "SELECTED selector ASx AS_ _AS by1 ORDERBY limits Action actions",
      // Identifier and number edges.
      "_x9", "SELECT _x9 FROM _", "007abc", "LIMIT 007abc", "0", "x0 9y",
      // Quotes.
      "''", "\"\"", "act=''", "act=\"\"", "'a\"b'", "\"a'b\"", "'", "\"",
      // Whitespace classes: \v and \f are whitespace, \0 is not.
      "\v", "\f", "SELECT\vMERGE\f(x)\t\r\n", std::string("\0", 1),
      std::string("a\0b", 3),
      // Punctuation the dialect does not have.
      "a;b", "a-b", "a+b", "a<b", "a>b", "a!b", "a@b", "a$b", "a[b]", "a{b}",
      "a:b", "a/b", "a\\b", "a`b", "a~b", "a|b", "a&b", "a^b", "a%b", "a?b",
  };
  // Every byte above 0x7f, bare and inside a string literal.
  for (int byte = 0x80; byte <= 0xff; ++byte) {
    const char c = static_cast<char>(byte);
    corpus.push_back(std::string("x") + c + " y");
    corpus.push_back(std::string("act='") + c + "'");
  }
  for (const corpus::MalformedCase& test_case : corpus::MalformedStatements()) {
    corpus.push_back(test_case.statement);
  }
  const std::string_view valid = corpus::kValidStatement;
  for (size_t cut = 0; cut <= valid.size(); ++cut) {
    corpus.emplace_back(valid.substr(0, cut));
  }
  for (size_t i = 0; i < valid.size(); ++i) {
    for (const char mutation : corpus::kMutations) {
      std::string mutated(valid);
      mutated[i] = mutation;
      corpus.push_back(std::move(mutated));
    }
  }
  return corpus;
}

TEST(LexerTest, TokensAndErrorsMatchThePinnedDigest) {
  // Each token's type, text and position (or Lex's error), then Parse's
  // status, for every statement of the corpus.
  Fnv fnv;
  for (const std::string& statement : LexerCorpus()) {
    const auto tokens = Lex(statement);
    if (tokens.ok()) {
      fnv.Value(tokens->size());
      for (const Token& token : *tokens) {
        fnv.Value(static_cast<uint64_t>(token.type));
        fnv.Text(token.text);
        fnv.Value(token.position);
      }
    } else {
      fnv.Value(~uint64_t{0});
      fnv.Value(static_cast<uint64_t>(tokens.status().code()));
      fnv.Text(tokens.status().message());
    }
    const auto parsed = Parse(statement);
    fnv.Value(static_cast<uint64_t>(parsed.status().code()));
    fnv.Text(parsed.status().message());
  }
  EXPECT_EQ(fnv.h, 0x0a76b259847da489ULL);
}

// ---------------------------------------------------------------------------
// Binder

TEST(BinderTest, BindsOnlineQuery) {
  auto bound = ParseAndBind(kOnlineSql);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->query.action, "jumping");
  EXPECT_EQ(bound->query.objects,
            (std::vector<std::string>{"car", "human"}));
  EXPECT_EQ(bound->video, "inputVideo");
  EXPECT_FALSE(bound->ranked);
  EXPECT_EQ(bound->k, 0);
  EXPECT_EQ(bound->detector_model, "ObjectDetector");
  EXPECT_EQ(bound->recognizer_model, "ActionRecognizer");
}

TEST(BinderTest, BindsOfflineQuery) {
  auto bound = ParseAndBind(kOfflineSql);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_TRUE(bound->ranked);
  EXPECT_EQ(bound->k, 7);
}

TEST(BinderTest, BindsVisionModelForm) {
  auto bound = ParseAndBind(kVisionModelSql);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->query.action, "robot_dancing");
  EXPECT_EQ(bound->query.objects,
            (std::vector<std::string>{"car", "human"}));
}

TEST(BinderTest, IncSynonym) {
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND obj.inc('car')");
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->query.objects, (std::vector<std::string>{"car"}));
}

TEST(BinderTest, RejectsQueryWithoutAction) {
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj) "
      "WHERE obj.include('car')");
  EXPECT_FALSE(bound.ok());
}

TEST(BinderTest, MultipleActionPredicatesBecomeExtraActions) {
  // Paper footnote 3: conjunctive multi-action queries.
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, act) "
      "WHERE act='x' AND act='y'");
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->query.action, "x");
  EXPECT_EQ(bound->query.extra_actions, (std::vector<std::string>{"y"}));
}

TEST(BinderTest, RejectsDuplicateActions) {
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, act) "
      "WHERE act='x' AND act='x'");
  EXPECT_FALSE(bound.ok());
}

TEST(BinderTest, CanonicalizesConjunctiveLabelOrder) {
  // Conjunctive predicates are commutative, so the binder sorts objects and
  // extra actions: permuted-but-equivalent statements bind to the same Query
  // (and therefore share one query-cache fingerprint).
  auto forward = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND act='z' AND act='y' AND "
      "obj.include('human', 'car')");
  auto reversed = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND act='y' AND act='z' AND "
      "obj.include('car', 'human')");
  ASSERT_TRUE(forward.ok()) << forward.status();
  ASSERT_TRUE(reversed.ok()) << reversed.status();
  EXPECT_EQ(forward->query.objects,
            (std::vector<std::string>{"car", "human"}));
  EXPECT_EQ(forward->query.extra_actions,
            (std::vector<std::string>{"y", "z"}));
  EXPECT_EQ(forward->query.objects, reversed->query.objects);
  EXPECT_EQ(forward->query.extra_actions, reversed->query.extra_actions);
}

TEST(BinderTest, BindsDisjunction) {
  // Paper footnote 4: any-of object groups.
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND obj.include_any('car', 'bus')");
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_TRUE(bound->query.objects.empty());
  ASSERT_EQ(bound->query.object_disjunctions.size(), 1u);
  EXPECT_EQ(bound->query.object_disjunctions[0],
            (std::vector<std::string>{"car", "bus"}));
}

TEST(BinderTest, BindsRelationship) {
  // Paper footnote 2: spatial relationship predicates; the `rel` pseudo-
  // alias needs no PRODUCE declaration.
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND rel.left_of('human', 'car')");
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_EQ(bound->query.relationships.size(), 1u);
  EXPECT_EQ(bound->query.relationships[0],
            (svq::core::Relationship{svq::core::RelOp::kLeftOf, "human",
                                     "car"}));
}

TEST(BinderTest, RelationshipNeedsTwoArgs) {
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND rel.left_of('human')");
  EXPECT_FALSE(bound.ok());
}

TEST(BinderTest, RejectsUndeclaredAlias) {
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, act) "
      "WHERE act='x' AND obj.include('car')");
  EXPECT_FALSE(bound.ok());
}

TEST(BinderTest, RejectsUnknownObjectMethod) {
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND obj.excludes('car')");
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kUnimplemented);
}

TEST(BinderTest, RankedRequiresLimit) {
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID), RANK(act, obj) "
      "FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND obj.include('car')");
  EXPECT_FALSE(bound.ok());
}

TEST(BinderTest, RejectsDuplicateObjects) {
  auto bound = ParseAndBind(
      "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, obj, act) "
      "WHERE act='x' AND obj.include('car', 'car')");
  EXPECT_FALSE(bound.ok());
}

}  // namespace
}  // namespace svq::query
