// Tests of the JSON document model (src/util/json.h): parse/build/dump
// round-trips, strictness on malformed input, and the determinism
// guarantees the server protocol and plan rendering rely on.

#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace sjsel {
namespace {

TEST(JsonParseTest, Scalars) {
  auto v = JsonValue::Parse("null");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());

  v = JsonValue::Parse("true");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_bool());
  EXPECT_TRUE(v->bool_value());

  v = JsonValue::Parse("false");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());

  v = JsonValue::Parse("  -12.5e2 ");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_number());
  EXPECT_DOUBLE_EQ(v->number_value(), -1250.0);

  v = JsonValue::Parse("\"hi\"");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_string());
  EXPECT_EQ(v->string_value(), "hi");
}

TEST(JsonParseTest, NestedDocument) {
  const auto v = JsonValue::Parse(
      R"({"op":"estimate","a":"x.ds","n":3,"ok":true,)"
      R"("list":[1,2,{"deep":null}]})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->Find("op")->string_value(), "estimate");
  EXPECT_DOUBLE_EQ(v->Find("n")->number_value(), 3.0);
  EXPECT_TRUE(v->Find("ok")->bool_value());
  const JsonValue* list = v->Find("list");
  ASSERT_TRUE(list != nullptr && list->is_array());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_TRUE(list->at(2).Find("deep")->is_null());
}

TEST(JsonParseTest, StringEscapes) {
  const auto v = JsonValue::Parse(R"("a\"b\\c\/d\n\tAé")");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->string_value(), "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(JsonParseTest, SurrogatePairDecodesToUtf8) {
  // U+1F600 as a surrogate pair.
  const auto v = JsonValue::Parse(R"("😀")");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->string_value(), "\xf0\x9f\x98\x80");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",        "{",        "[1,",      "{\"a\":}", "tru",
      "1.2.3",   "\"open",   "{'a':1}",  "[1] x",    "nan",
      "{\"a\" 1}",
  };
  for (const char* text : bad) {
    const auto v = JsonValue::Parse(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
  }
}

TEST(JsonParseTest, RejectsExcessiveDepth) {
  std::string deep;
  for (int i = 0; i < JsonValue::kMaxDepth + 4; ++i) deep += "[";
  for (int i = 0; i < JsonValue::kMaxDepth + 4; ++i) deep += "]";
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonParseTest, ErrorNamesByteOffset) {
  const auto v = JsonValue::Parse("{\"a\": !}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("byte 6"), std::string::npos)
      << v.status().ToString();
}

TEST(JsonDumpTest, InsertionOrderIsKept) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zebra", JsonValue::Int(1));
  obj.Set("alpha", JsonValue::Int(2));
  obj.Set("mid", JsonValue::Array());
  EXPECT_EQ(obj.Dump(), R"({"zebra":1,"alpha":2,"mid":[]})");
}

TEST(JsonDumpTest, SetReplacesWithoutReordering) {
  JsonValue obj = JsonValue::Object();
  obj.Set("a", JsonValue::Int(1));
  obj.Set("b", JsonValue::Int(2));
  obj.Set("a", JsonValue::Int(3));
  EXPECT_EQ(obj.Dump(), R"({"a":3,"b":2})");
}

TEST(JsonDumpTest, IntegersPrintWithoutExponent) {
  EXPECT_EQ(JsonValue::Int(0).Dump(), "0");
  EXPECT_EQ(JsonValue::Int(-42).Dump(), "-42");
  EXPECT_EQ(JsonValue::Int(1000000).Dump(), "1000000");
}

TEST(JsonDumpTest, DoublesRoundTripBitForBit) {
  const double values[] = {0.1, 1.0 / 3.0, 9.0072718760359825e-05,
                           1e300, -2.5e-17};
  for (const double v : values) {
    const auto parsed = JsonValue::Parse(JsonValue::Number(v).Dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->number_value(), v);  // exact, not near
  }
}

TEST(JsonDumpTest, NonFiniteNumbersAreNull) {
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(JsonValue::Number(v).Dump(), "null");
  }
  const std::string doc =
      JsonValue::Object()
          .Set("x", JsonValue::Number(std::numeric_limits<double>::quiet_NaN()))
          .Dump();
  EXPECT_EQ(doc, R"({"x":null})");
  EXPECT_TRUE(JsonValue::Parse(doc).ok());
}

TEST(JsonDumpTest, StringsAreEscaped) {
  EXPECT_EQ(JsonValue::String("a\"b\\c\n\x01").Dump(),
            "\"a\\\"b\\\\c\\n\\u0001\"");
}

TEST(JsonDumpTest, ParseDumpFixpoint) {
  const std::string text =
      R"({"id":7,"op":"plan","paths":["a.ds","b.ds"],"deadline_ms":250.5})";
  const auto v = JsonValue::Parse(text);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Dump(), text);
}

TEST(JsonTypedGetTest, FallbackAndTypeErrors) {
  const auto v = JsonValue::Parse(R"({"op":"ping","n":3,"flag":true})");
  ASSERT_TRUE(v.ok());
  // Present with the right type.
  EXPECT_EQ(v->GetString("op", "x").value(), "ping");
  EXPECT_DOUBLE_EQ(v->GetNumber("n", 0).value(), 3.0);
  EXPECT_TRUE(v->GetBool("flag", false).value());
  // Absent: fallback.
  EXPECT_EQ(v->GetString("missing", "dflt").value(), "dflt");
  EXPECT_DOUBLE_EQ(v->GetNumber("missing", 9.5).value(), 9.5);
  // Present with the wrong type: error, not a silent coercion.
  EXPECT_FALSE(v->GetString("n", "").ok());
  EXPECT_FALSE(v->GetNumber("op", 0).ok());
  EXPECT_FALSE(v->GetBool("n", false).ok());
}

TEST(JsonAppendEscapedTest, QuotesAndEscapes) {
  std::string out;
  JsonAppendEscaped(&out, "k\"v");
  EXPECT_EQ(out, "\"k\\\"v\"");
}

}  // namespace
}  // namespace sjsel
