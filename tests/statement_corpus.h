// Hostile and malformed statements shared by parser_fuzz_test (every one
// must come back as an error Status) and query_language_test (the lexer's
// and parser's pinned output over them).

#ifndef SVQ_TESTS_STATEMENT_CORPUS_H_
#define SVQ_TESTS_STATEMENT_CORPUS_H_

#include <string>
#include <string_view>
#include <vector>

namespace svq::query::corpus {

inline constexpr std::string_view kValidStatement =
    "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS inputVideo PRODUCE "
    "clipID, obj USING ObjectDetector, act USING ActionRecognizer) "
    "WHERE act='smoking' AND obj.include('cup') "
    "ORDER BY RANK(act, obj) LIMIT 3";

/// The values each byte of kValidStatement is overwritten with in turn.
inline constexpr char kMutations[] = {'\0', '\'', '(', ')', '\xff', ' '};

struct MalformedCase {
  const char* name;
  std::string statement;
};

inline std::vector<MalformedCase> MalformedStatements() {
  std::vector<MalformedCase> cases = {
      {"empty", ""},
      {"whitespace_only", "   \t\n  "},
      {"single_keyword", "SELECT"},
      {"keyword_soup", "SELECT FROM WHERE ORDER BY LIMIT"},
      {"not_a_statement", "DROP TABLE videos"},
      {"bare_garbage", "!!!???"},
      {"null_bytes", std::string("SELECT \0 FROM x", 15)},
      {"high_bytes", "SELECT \xff\xfe\xfd FROM x"},
      {"unterminated_string", "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE "
                              "clipID, act USING A) WHERE act='smoking"},
      {"unbalanced_parens", "SELECT MERGE(clipID FROM (PROCESS v PRODUCE "
                            "clipID, act USING A) WHERE act='x'"},
      {"missing_produce", "SELECT MERGE(clipID) FROM (PROCESS v) "
                          "WHERE act='x'"},
      {"predicate_on_undeclared_alias",
       "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, act USING A) "
       "WHERE ghost='x'"},
      {"rank_without_limit",
       "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS v PRODUCE clipID, "
       "obj USING O, act USING A) WHERE act='x' AND obj.include('y') "
       "ORDER BY RANK(act, obj)"},
      {"negative_limit",
       "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS v PRODUCE clipID, "
       "obj USING O, act USING A) WHERE act='x' AND obj.include('y') "
       "ORDER BY RANK(act, obj) LIMIT -3"},
      {"limit_not_a_number",
       "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS v PRODUCE clipID, "
       "obj USING O, act USING A) WHERE act='x' AND obj.include('y') "
       "ORDER BY RANK(act, obj) LIMIT banana"},
      {"trailing_tokens", std::string(kValidStatement) + " EXTRA TOKENS"},
      {"statement_typed_twice",
       std::string(kValidStatement) + " " + std::string(kValidStatement)},
  };

  // Oversized inputs: a multi-megabyte statement, a pathologically long
  // identifier, a huge string literal, and a deep run of parentheses. These
  // exercise allocation and recursion limits, not grammar rules.
  cases.push_back({"megabyte_of_keywords", [] {
                     std::string s;
                     while (s.size() < (1u << 21)) s += "SELECT ";
                     return s;
                   }()});
  cases.push_back(
      {"long_identifier", "SELECT " + std::string(1 << 20, 'a') + " FROM x"});
  cases.push_back({"huge_unterminated_literal",
                   "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID, act "
                   "USING A) WHERE act='" +
                       std::string(1 << 20, 'x')});
  cases.push_back({"paren_nesting", "SELECT MERGE(clipID) FROM " +
                                        std::string(4096, '(') + "PROCESS" +
                                        std::string(4096, ')')});
  return cases;
}

}  // namespace svq::query::corpus

#endif  // SVQ_TESTS_STATEMENT_CORPUS_H_
