// Tests for the entity model, the §2.2 serializer, dataset splitting, the
// eight benchmark generators (parameterized), and the JSON parser's
// nesting bound.

#include <string>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "data/dataset.h"
#include "data/json.h"
#include "data/record.h"
#include "data/serializer.h"

namespace promptem::data {
namespace {

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value::Str("x").is_string());
  EXPECT_TRUE(Value::Num(3).is_number());
  EXPECT_TRUE(Value::List({}).is_list());
  EXPECT_TRUE(Value::Object({}).is_object());
}

TEST(ValueTest, NumberFormatting) {
  EXPECT_EQ(Value::Num(2003).NumberToString(), "2003");
  EXPECT_EQ(Value::Num(4.5).NumberToString(), "4.5");
  EXPECT_EQ(Value::Num(-7).NumberToString(), "-7");
}

TEST(RecordTest, NumAttrs) {
  Record rel = Record::Relational({{"a", Value::Num(1)}});
  EXPECT_EQ(rel.NumAttrs(), 1);
  Record text = Record::Textual("hello world");
  EXPECT_EQ(text.NumAttrs(), 1);  // Table 1 convention for text tables
}

TEST(RecordTest, FindAttr) {
  Record r = Record::Relational(
      {{"a", Value::Num(1)}, {"b", Value::Str("x")}});
  ASSERT_NE(r.Find("b"), nullptr);
  EXPECT_EQ(r.Find("b")->as_string(), "x");
  EXPECT_EQ(r.Find("zz"), nullptr);
}

TEST(RecordTest, ValidateRelationalRejectsNested) {
  Record r = Record::Relational({{"a", Value::List({Value::Num(1)})}});
  EXPECT_FALSE(ValidateRecord(r).ok());
}

TEST(RecordTest, ValidateTextualRejectsAttrs) {
  Record r = Record::Textual("t");
  r.attrs.emplace_back("a", Value::Num(1));
  EXPECT_FALSE(ValidateRecord(r).ok());
}

TEST(RecordTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(ValidateRecord(Record::Textual("abc")).ok());
  EXPECT_TRUE(ValidateRecord(Record::Relational(
                                 {{"year", Value::Num(2003)}}))
                  .ok());
  EXPECT_TRUE(ValidateRecord(Record::SemiStructured(
                                 {{"authors",
                                   Value::List({Value::Str("a")})}}))
                  .ok());
}

// --- Serializer: the paper's §2.2 examples ---

TEST(SerializerTest, RelationalMatchesPaperFormat) {
  Record r = Record::Relational({{"title", Value::Str("efficient similarity")},
                                 {"venue", Value::Str("sigmod")},
                                 {"year", Value::Num(2003)}});
  EXPECT_EQ(SerializeRecord(r),
            "[COL] title [VAL] efficient similarity "
            "[COL] venue [VAL] sigmod [COL] year [VAL] 2003");
}

TEST(SerializerTest, ListConcatenatedIntoOneString) {
  // §2.2 rule (ii): list elements joined into one string.
  Record r = Record::SemiStructured(
      {{"authors", Value::List({Value::Str("ronald fagin"),
                                Value::Str("ravi kumar")})}});
  EXPECT_EQ(SerializeRecord(r),
            "[COL] authors [VAL] ronald fagin ravi kumar");
}

TEST(SerializerTest, NestedObjectRecursesWithTags) {
  // §2.2 rule (i): nested attributes get [COL]/[VAL] at each level.
  Record r = Record::SemiStructured(
      {{"credits",
        Value::Object({{"director", Value::Str("jane")},
                       {"studio", Value::Str("acme")}})}});
  EXPECT_EQ(SerializeRecord(r),
            "[COL] credits [VAL] [COL] director [VAL] jane "
            "[COL] studio [VAL] acme");
}

TEST(SerializerTest, TextualIsPassthrough) {
  EXPECT_EQ(SerializeRecord(Record::Textual("we study matching")),
            "we study matching");
}

TEST(SerializerTest, EmptyValueStaysTagged) {
  Record r = Record::Relational({{"note", Value::Str("")}});
  EXPECT_EQ(SerializeRecord(r), "[COL] note [VAL]");
}

TEST(SerializerTest, PairUsesClsSep) {
  Record a = Record::Textual("left");
  Record b = Record::Textual("right");
  EXPECT_EQ(SerializePair(a, b), "[CLS] left [SEP] right [SEP]");
}

// --- Dataset splitting ---

GemDataset TinyDataset(int n, double pos_rate) {
  GemDataset ds;
  ds.name = "tiny";
  for (int i = 0; i < n; ++i) {
    ds.left_table.push_back(Record::Textual("l" + std::to_string(i)));
    ds.right_table.push_back(Record::Textual("r" + std::to_string(i)));
    ds.train.push_back(
        {i, i, i < static_cast<int>(n * pos_rate) ? 1 : 0});
  }
  ds.valid = {{0, 0, 1}};
  ds.test = {{1, 1, 0}};
  return ds;
}

TEST(DatasetTest, LowResourceSplitSizes) {
  GemDataset ds = TinyDataset(100, 0.3);
  core::Rng rng(1);
  LowResourceSplit split = MakeLowResourceSplit(ds, 0.10, &rng);
  // Budget = rate * TotalLabeled = 0.1 * 102 = 10.
  EXPECT_EQ(split.labeled.size(), 10u);
  EXPECT_EQ(split.labeled.size() + split.unlabeled.size(), 100u);
}

TEST(DatasetTest, StratificationKeepsBothClasses) {
  GemDataset ds = TinyDataset(100, 0.3);
  core::Rng rng(2);
  LowResourceSplit split = MakeLowResourceSplit(ds, 0.10, &rng);
  const double rate = PositiveRate(split.labeled);
  EXPECT_GT(rate, 0.0);
  EXPECT_LT(rate, 1.0);
  EXPECT_NEAR(rate, 0.3, 0.15);
}

TEST(DatasetTest, CountSplitExactCount) {
  GemDataset ds = TinyDataset(100, 0.3);
  core::Rng rng(3);
  LowResourceSplit split = MakeCountSplit(ds, 14, &rng);
  EXPECT_EQ(split.labeled.size(), 14u);
}

TEST(DatasetTest, CountSplitClampsToTrainSize) {
  GemDataset ds = TinyDataset(10, 0.5);
  core::Rng rng(4);
  LowResourceSplit split = MakeCountSplit(ds, 999, &rng);
  EXPECT_EQ(split.labeled.size(), 10u);
  EXPECT_TRUE(split.unlabeled.empty());
}

TEST(DatasetTest, PositiveRateComputation) {
  EXPECT_DOUBLE_EQ(PositiveRate({}), 0.0);
  EXPECT_DOUBLE_EQ(PositiveRate({{0, 0, 1}, {0, 0, 0}}), 0.5);
}

TEST(DatasetTest, MeanAttrs) {
  std::vector<Record> table = {
      Record::Relational({{"a", Value::Num(1)}, {"b", Value::Num(2)}}),
      Record::Textual("x")};
  EXPECT_DOUBLE_EQ(GemDataset::MeanAttrs(table), 1.5);
}

// --- Benchmark generators (parameterized over all eight) ---

class BenchmarkGenTest : public ::testing::TestWithParam<BenchmarkKind> {};

TEST_P(BenchmarkGenTest, TablesNonEmptyAndValid) {
  GemDataset ds = GenerateBenchmark(GetParam(), 99);
  EXPECT_FALSE(ds.left_table.empty());
  EXPECT_FALSE(ds.right_table.empty());
  for (const auto& r : ds.left_table) {
    EXPECT_TRUE(ValidateRecord(r).ok()) << ds.name;
  }
  for (const auto& r : ds.right_table) {
    EXPECT_TRUE(ValidateRecord(r).ok()) << ds.name;
  }
}

TEST_P(BenchmarkGenTest, SplitsPopulatedAndIndicesInRange) {
  GemDataset ds = GenerateBenchmark(GetParam(), 99);
  EXPECT_GT(ds.train.size(), ds.valid.size());
  EXPECT_FALSE(ds.valid.empty());
  EXPECT_FALSE(ds.test.empty());
  auto check = [&](const std::vector<PairExample>& pairs) {
    for (const auto& p : pairs) {
      ASSERT_GE(p.left_index, 0);
      ASSERT_LT(p.left_index, static_cast<int>(ds.left_table.size()));
      ASSERT_GE(p.right_index, 0);
      ASSERT_LT(p.right_index, static_cast<int>(ds.right_table.size()));
      ASSERT_TRUE(p.label == 0 || p.label == 1);
    }
  };
  check(ds.train);
  check(ds.valid);
  check(ds.test);
}

TEST_P(BenchmarkGenTest, DeterministicPerSeed) {
  GemDataset a = GenerateBenchmark(GetParam(), 123);
  GemDataset b = GenerateBenchmark(GetParam(), 123);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].left_index, b.train[i].left_index);
    EXPECT_EQ(a.train[i].label, b.train[i].label);
  }
  ASSERT_EQ(a.left_table.size(), b.left_table.size());
  EXPECT_EQ(SerializeRecord(a.left_table[0]),
            SerializeRecord(b.left_table[0]));
}

TEST_P(BenchmarkGenTest, DifferentSeedsDiffer) {
  GemDataset a = GenerateBenchmark(GetParam(), 1);
  GemDataset b = GenerateBenchmark(GetParam(), 2);
  EXPECT_NE(SerializeRecord(a.left_table[0]),
            SerializeRecord(b.left_table[0]));
}

TEST_P(BenchmarkGenTest, PositiveRateReasonable) {
  GemDataset ds = GenerateBenchmark(GetParam(), 99);
  std::vector<PairExample> all = ds.train;
  all.insert(all.end(), ds.valid.begin(), ds.valid.end());
  all.insert(all.end(), ds.test.begin(), ds.test.end());
  const double rate = PositiveRate(all);
  EXPECT_GT(rate, 0.2);
  EXPECT_LT(rate, 0.45);
}

TEST_P(BenchmarkGenTest, PositivesShareEntity) {
  GemDataset ds = GenerateBenchmark(GetParam(), 99);
  for (const auto& p : ds.train) {
    if (p.label == 1) {
      // Generator renders matching rows at equal indices.
      EXPECT_EQ(p.left_index, p.right_index);
    }
  }
}

TEST_P(BenchmarkGenTest, SizeScaleGrowsTables) {
  BenchmarkGenOptions big;
  big.size_scale = 2.0;
  GemDataset base = GenerateBenchmark(GetParam(), 99);
  GemDataset scaled = GenerateBenchmark(GetParam(), 99, big);
  EXPECT_GT(scaled.left_table.size(), base.left_table.size());
  EXPECT_GT(scaled.TotalLabeled(), base.TotalLabeled());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkGenTest,
    ::testing::ValuesIn(AllBenchmarks()),
    [](const ::testing::TestParamInfo<BenchmarkKind>& info) {
      std::string name = GetBenchmarkInfo(info.param).name;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(BenchmarkTest, FormatsMatchPaperTable1) {
  auto get = [](BenchmarkKind k) { return GenerateBenchmark(k, 5); };
  EXPECT_EQ(get(BenchmarkKind::kRelHeter).left_table[0].format,
            RecordFormat::kRelational);
  EXPECT_EQ(get(BenchmarkKind::kSemiHomo).left_table[0].format,
            RecordFormat::kSemiStructured);
  EXPECT_EQ(get(BenchmarkKind::kSemiRel).left_table[0].format,
            RecordFormat::kSemiStructured);
  EXPECT_EQ(get(BenchmarkKind::kSemiRel).right_table[0].format,
            RecordFormat::kRelational);
  EXPECT_EQ(get(BenchmarkKind::kSemiTextW).right_table[0].format,
            RecordFormat::kTextual);
  EXPECT_EQ(get(BenchmarkKind::kRelText).left_table[0].format,
            RecordFormat::kTextual);
}

TEST(BenchmarkTest, HeterogeneousSchemasDiffer) {
  GemDataset ds = GenerateBenchmark(BenchmarkKind::kRelHeter, 5);
  EXPECT_NE(ds.left_table[0].attrs[0].first,
            ds.right_table[0].attrs[0].first);
}

TEST(BenchmarkTest, HomogeneousSchemaShared) {
  GemDataset ds = GenerateBenchmark(BenchmarkKind::kSemiHomo, 5);
  // Same attribute set (order may differ per §2.2's robustness needs).
  std::set<std::string> left, right;
  for (auto& [k, v] : ds.left_table[0].attrs) left.insert(k);
  for (auto& [k, v] : ds.right_table[0].attrs) right.insert(k);
  EXPECT_EQ(left, right);
}

TEST(BenchmarkTest, SemiHeterIsDigitHeavy) {
  GemDataset ds = GenerateBenchmark(BenchmarkKind::kSemiHeter, 5);
  // Mirrors the paper's "53% of attribute values are digits".
  EXPECT_GT(DigitFraction(ds.left_table), 0.4);
}

TEST(BenchmarkTest, TextDatasetsLessDigitHeavy) {
  GemDataset heter = GenerateBenchmark(BenchmarkKind::kSemiHeter, 5);
  GemDataset text = GenerateBenchmark(BenchmarkKind::kSemiTextW, 5);
  EXPECT_GT(DigitFraction(heter.left_table),
            DigitFraction(text.right_table));
}

TEST(BenchmarkTest, MovieNestsCredits) {
  GemDataset ds = GenerateBenchmark(BenchmarkKind::kSemiRel, 5);
  const Value* credits = ds.left_table[0].Find("credits");
  ASSERT_NE(credits, nullptr);
  EXPECT_TRUE(credits->is_object());
}

TEST(BenchmarkTest, DefaultRatesMatchTable1) {
  EXPECT_DOUBLE_EQ(GetBenchmarkInfo(BenchmarkKind::kSemiHomo).default_rate,
                   0.05);
  EXPECT_DOUBLE_EQ(GetBenchmarkInfo(BenchmarkKind::kSemiTextC).default_rate,
                   0.05);
  EXPECT_DOUBLE_EQ(GetBenchmarkInfo(BenchmarkKind::kRelHeter).default_rate,
                   0.10);
}

TEST(BenchmarkTest, InfoNamesUnique) {
  std::set<std::string> names;
  for (auto kind : AllBenchmarks()) {
    names.insert(GetBenchmarkInfo(kind).name);
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(BenchmarkTest, GenerateAllReturnsEight) {
  auto all = GenerateAllBenchmarks(3);
  EXPECT_EQ(all.size(), 8u);
}

std::string Nested(char open, char close, int depth) {
  return std::string(static_cast<size_t>(depth), open) +
         std::string(static_cast<size_t>(depth), close);
}

TEST(JsonDepthTest, AcceptsNestingUpToTheCap) {
  EXPECT_TRUE(ParseJson(Nested('[', ']', kMaxJsonDepth)).ok());
  std::string objects;
  for (int i = 0; i < kMaxJsonDepth - 1; ++i) objects += "{\"k\":";
  objects += "{}" + std::string(static_cast<size_t>(kMaxJsonDepth - 1), '}');
  EXPECT_TRUE(ParseJson(objects).ok());
}

TEST(JsonDepthTest, RejectsNestingPastTheCap) {
  const auto arrays = ParseJson(Nested('[', ']', kMaxJsonDepth + 1));
  ASSERT_FALSE(arrays.ok());
  EXPECT_EQ(arrays.status().code(), core::StatusCode::kInvalidArgument);
  // Alternating objects and arrays, well formed, one level too deep.
  std::string open, close;
  for (int i = 0; i <= kMaxJsonDepth; ++i) {
    open += i % 2 ? "{\"k\":" : "[";
    close.insert(close.begin(), i % 2 ? '}' : ']');
  }
  const std::string innermost = kMaxJsonDepth % 2 ? "1" : "";
  EXPECT_EQ(ParseJson(open + innermost + close).status().code(),
            core::StatusCode::kInvalidArgument);
}

TEST(JsonDepthTest, HugeUnclosedNestingIsAnErrorNotACrash) {
  // 400 KB of '[' once overflowed the stack of the recursive parser.
  const auto parsed = ParseJson(std::string(400 * 1024, '['));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), core::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace promptem::data
