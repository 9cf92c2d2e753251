#include "query/path_executor.h"
#include "query/path_query.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/test_util.h"
#include "xml/dtd.h"
#include "xml/generator.h"

namespace xrtree {
namespace {

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

TEST(PathQueryTest, ParsesMixedAxes) {
  ASSERT_OK_AND_ASSIGN(PathQuery q,
                       PathQuery::Parse("departments//employee/name"));
  ASSERT_EQ(q.steps().size(), 3u);
  EXPECT_EQ(q.steps()[0].tag, "departments");
  EXPECT_EQ(q.steps()[1].axis, Axis::kDescendant);
  EXPECT_EQ(q.steps()[1].tag, "employee");
  EXPECT_EQ(q.steps()[2].axis, Axis::kChild);
  EXPECT_EQ(q.steps()[2].tag, "name");
  EXPECT_EQ(q.ToString(), "departments//employee/name");
}

TEST(PathQueryTest, LeadingDoubleSlash) {
  ASSERT_OK_AND_ASSIGN(PathQuery q, PathQuery::Parse("//employee//name"));
  ASSERT_EQ(q.steps().size(), 2u);
  EXPECT_EQ(q.steps()[0].axis, Axis::kDescendant);
}

TEST(PathQueryTest, LeadingSingleSlashMeansRoot) {
  ASSERT_OK_AND_ASSIGN(PathQuery q, PathQuery::Parse("/departments//name"));
  EXPECT_EQ(q.steps()[0].axis, Axis::kChild);
  EXPECT_EQ(q.ToString(), "/departments//name");
}

TEST(PathQueryTest, RejectsGarbage) {
  EXPECT_FALSE(PathQuery::Parse("").ok());
  EXPECT_FALSE(PathQuery::Parse("a///b").ok());
  EXPECT_FALSE(PathQuery::Parse("a//").ok());
  EXPECT_FALSE(PathQuery::Parse("a b").ok());
  EXPECT_FALSE(PathQuery::Parse("//").ok());
}

// ---------------------------------------------------------------------------
// Execution vs a step-by-step oracle
// ---------------------------------------------------------------------------

/// Oracle: evaluates the query by brute-force filtering per step.
ElementList OracleExecute(const Corpus& corpus, const PathQuery& query) {
  ElementList context = corpus.ElementsWithTag(query.steps()[0].tag);
  if (query.steps()[0].axis == Axis::kChild) {
    ElementList roots;
    for (const Element& e : context) {
      if (e.level == 0) roots.push_back(e);
    }
    context = roots;
  }
  for (size_t i = 1; i < query.steps().size(); ++i) {
    const PathStep& step = query.steps()[i];
    ElementList tag_set = corpus.ElementsWithTag(step.tag);
    ElementList next;
    for (const Element& d : tag_set) {
      for (const Element& a : context) {
        bool match = step.axis == Axis::kDescendant ? a.Contains(d)
                                                    : a.IsParentOf(d);
        if (match) {
          next.push_back(d);
          break;
        }
      }
    }
    context = next;
  }
  return context;
}

void StripFlags(ElementList* list) {
  for (Element& e : *list) e.flags = 0;
}

Corpus GenerateCorpus(const Dtd& dtd, std::vector<uint64_t> seeds) {
  Corpus corpus;
  for (uint64_t seed : seeds) {
    GeneratorOptions options;
    options.target_elements = 8000 / seeds.size();
    options.seed = seed;
    Result<Document> doc = Generator::Generate(dtd, options);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    if (doc.ok()) corpus.AddDocument(std::move(doc).value());
  }
  return corpus;
}

/// Runs `text` through the executor and checks it against the oracle.
void ExpectMatchesOracle(const Corpus& corpus, const char* text) {
  TempDb db(2048);
  PathExecutor executor(db.pool(), &corpus);
  ASSERT_OK_AND_ASSIGN(PathQuery query, PathQuery::Parse(text));
  PathStats stats;
  ASSERT_OK_AND_ASSIGN(ElementList got, executor.Execute(query, &stats));
  ElementList want = OracleExecute(corpus, query);
  StripFlags(&got);
  StripFlags(&want);
  EXPECT_EQ(got, want);
  EXPECT_EQ(stats.joins, query.steps().size() - 1);
}

std::string QueryTestName(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class PathExecutorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PathExecutorTest, MatchesOracleOnDepartmentData) {
  ExpectMatchesOracle(GenerateCorpus(Dtd::Department(), {20030305}),
                      GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Queries, PathExecutorTest,
    ::testing::Values("//employee//name", "//employee/name",
                      "departments//employee//employee//name",
                      "/departments//department/employee",
                      "//department//email", "//name",
                      "//employee//employee/employee",
                      "//name//employee"  /* empty: names have no children */),
    QueryTestName);

class ConferencePathTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ConferencePathTest, MatchesOracle) {
  ExpectMatchesOracle(GenerateCorpus(Dtd::Conference(), {20030305}),
                      GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Queries, ConferencePathTest,
    ::testing::Values("//conference//author", "//paper/author",
                      "/conferences//email", "conferences/conference/paper",
                      "//conference//paper/title",
                      "//conference/author"  /* empty: a grandchild */),
    QueryTestName);

/// Two documents in one corpus: no region of one contains the other's.
class TwoDocumentPathTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TwoDocumentPathTest, MatchesOracle) {
  Corpus corpus = GenerateCorpus(Dtd::Department(), {20030305, 7});
  ASSERT_EQ(corpus.num_documents(), 2u);
  ExpectMatchesOracle(corpus, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Queries, TwoDocumentPathTest,
    ::testing::Values("//employee//name", "//employee/name",
                      "/departments//email", "/departments/department",
                      "//department//employee/employee//email"),
    QueryTestName);

TEST(PathExecutorTest, UnknownTagYieldsEmpty) {
  Corpus corpus;
  Document doc;
  NodeId root = doc.CreateRoot("a");
  doc.AddChild(root, "b");
  corpus.AddDocument(std::move(doc));
  TempDb db;
  PathExecutor executor(db.pool(), &corpus);
  ASSERT_OK_AND_ASSIGN(ElementList got, executor.Execute("//nothing//b"));
  EXPECT_TRUE(got.empty());
}

TEST(PathExecutorTest, TagIndexIsReusedAcrossQueries) {
  GeneratorOptions options;
  options.target_elements = 3000;
  ASSERT_OK_AND_ASSIGN(Document doc,
                       Generator::Generate(Dtd::Department(), options));
  Corpus corpus;
  corpus.AddDocument(std::move(doc));
  TempDb db(2048);
  PathExecutor executor(db.pool(), &corpus);
  ASSERT_OK_AND_ASSIGN(ElementList first,
                       executor.Execute("//employee//name"));
  // The first query indexed both tags; every later one only reads them.
  const uint64_t pages = db.disk()->num_pages();
  const size_t free_pages = db.pool()->FreeListSnapshot().size();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_OK_AND_ASSIGN(ElementList again,
                         executor.Execute("//employee//name"));
    ASSERT_EQ(again, first);
  }
  EXPECT_EQ(db.disk()->num_pages(), pages);
  EXPECT_EQ(db.pool()->FreeListSnapshot().size(), free_pages);
}

}  // namespace
}  // namespace xrtree
