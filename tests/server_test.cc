// Tests of the estimation server (src/server/): protocol round-trips
// driven through Server::HandleLine (the full protocol minus the
// socket), structured errors for malformed input and expired deadlines,
// agreement with the standalone estimator and planner, and — over a
// real Unix-domain socket — concurrent clients, admission-control
// rejection and graceful shutdown. The socket tests also run under the
// TSan CI job, which is the point: every request path is exercised from
// multiple threads.

#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gh_histogram.h"
#include "core/guarded_estimator.h"
#include "datagen/generators.h"
#include "planner/join_planner.h"
#include "server/client.h"
#include "server/protocol.h"
#include "util/build_info.h"
#include "util/json.h"
#include "util/table.h"

namespace sjsel {
namespace server {
namespace {

Dataset MakeUniform(const std::string& name, size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  return gen::UniformRects(name, n, Rect(0, 0, 1, 1), size, seed);
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() {
    a_path_ = ::testing::TempDir() + "/server_a.ds";
    b_path_ = ::testing::TempDir() + "/server_b.ds";
    c_path_ = ::testing::TempDir() + "/server_c.ds";
    EXPECT_TRUE(MakeUniform("sa", 800, 21).Save(a_path_).ok());
    EXPECT_TRUE(MakeUniform("sb", 600, 22).Save(b_path_).ok());
    EXPECT_TRUE(MakeUniform("sc", 400, 23).Save(c_path_).ok());
  }

  ~ServerTest() override {
    std::remove(a_path_.c_str());
    std::remove(b_path_.c_str());
    std::remove(c_path_.c_str());
  }

  // Handles one line on a throwaway server and parses the response.
  JsonValue Handle(Server* server, const std::string& line) {
    const std::string response = server->HandleLine(line);
    auto parsed = JsonValue::Parse(response);
    EXPECT_TRUE(parsed.ok()) << "unparseable response: " << response;
    return parsed.ok() ? std::move(parsed).value() : JsonValue::Null();
  }

  // A counter from the server's lifetime metrics (0 when never counted).
  double Counter(Server* server, const std::string& name) {
    const JsonValue response = Handle(server, R"({"op":"stats"})");
    const JsonValue* result = response.Find("result");
    const JsonValue* metrics =
        result != nullptr ? result->Find("metrics") : nullptr;
    const JsonValue* counters =
        metrics != nullptr ? metrics->Find("counters") : nullptr;
    const JsonValue* value =
        counters != nullptr ? counters->Find(name) : nullptr;
    return value != nullptr ? value->number_value() : 0.0;
  }

  static std::string ErrorCode(const JsonValue& response) {
    const JsonValue* error = response.Find("error");
    if (error == nullptr || error->Find("code") == nullptr) return "";
    return error->Find("code")->string_value();
  }

  std::string a_path_, b_path_, c_path_;
};

TEST_F(ServerTest, MalformedLineIsStructuredBadRequest) {
  Server server(ServerOptions{});
  for (const char* line : {"{nope", "[]", "\"just a string\"", "{}",
                           "{\"op\":42}"}) {
    const JsonValue response = Handle(&server, line);
    ASSERT_TRUE(response.is_object()) << line;
    EXPECT_FALSE(response.Find("ok")->bool_value()) << line;
    EXPECT_EQ(ErrorCode(response), kErrBadRequest) << line;
  }
}

TEST_F(ServerTest, UnknownOpEchoesIdWithStructuredError) {
  Server server(ServerOptions{});
  const JsonValue response =
      Handle(&server, R"({"id":"req-7","op":"frobnicate"})");
  EXPECT_EQ(response.Find("id")->string_value(), "req-7");
  EXPECT_FALSE(response.Find("ok")->bool_value());
  EXPECT_EQ(ErrorCode(response), kErrUnknownOp);
}

TEST_F(ServerTest, ExpiredDeadlineIsDeadlineError) {
  Server server(ServerOptions{});
  // deadline_ms <= 0 is already expired at dispatch — the deterministic
  // test hook for the deadline path (docs/SERVER.md).
  const JsonValue response = Handle(
      &server, R"({"id":3,"op":"estimate","a":")" + a_path_ +
                   R"(","b":")" + b_path_ + R"(","deadline_ms":0})");
  EXPECT_EQ(ErrorCode(response), kErrDeadline);
  EXPECT_DOUBLE_EQ(response.Find("id")->number_value(), 3.0);
}

TEST_F(ServerTest, GenerousDeadlinePasses) {
  Server server(ServerOptions{});
  const JsonValue response = Handle(
      &server, R"({"op":"ping","deadline_ms":60000})");
  EXPECT_TRUE(response.Find("ok")->bool_value());
  EXPECT_TRUE(response.Find("result")->Find("pong")->bool_value());
}

TEST_F(ServerTest, MissingDatasetIsNotFound) {
  Server server(ServerOptions{});
  const JsonValue response = Handle(
      &server, R"({"op":"estimate","a":"/no/such/file.ds","b":")" +
                   b_path_ + R"("})");
  EXPECT_FALSE(response.Find("ok")->bool_value());
  EXPECT_EQ(ErrorCode(response), kErrNotFound);
}

TEST_F(ServerTest, EstimateMatchesStandaloneEstimatorBitForBit) {
  Server server(ServerOptions{});
  const JsonValue response = Handle(
      &server, R"({"op":"estimate","a":")" + a_path_ + R"(","b":")" +
                   b_path_ + R"("})");
  ASSERT_TRUE(response.Find("ok")->bool_value());
  const JsonValue* result = response.Find("result");
  ASSERT_TRUE(result != nullptr);

  auto a = Dataset::Load(a_path_);
  auto b = Dataset::Load(b_path_);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto standalone = GuardedEstimator().Estimate(*a, *b);
  ASSERT_TRUE(standalone.ok());

  EXPECT_EQ(result->Find("estimated_pairs")->number_value(),
            standalone->outcome.estimated_pairs);
  EXPECT_EQ(result->Find("selectivity")->number_value(),
            standalone->outcome.selectivity);
  // The *_text fields reproduce the CLI `estimate` rendering exactly.
  EXPECT_EQ(result->Find("estimated_pairs_text")->string_value(),
            FormatDouble(standalone->outcome.estimated_pairs, 1));
  EXPECT_EQ(result->Find("selectivity_text")->string_value(),
            FormatDouble(standalone->outcome.selectivity, 6));
  EXPECT_EQ(result->Find("rung")->string_value(),
            EstimatorRungName(standalone->rung));
}

TEST_F(ServerTest, PlanMatchesInProcessPlanner) {
  Server server(ServerOptions{});
  const JsonValue response = Handle(
      &server, R"({"op":"plan","paths":[")" + a_path_ + R"(",")" +
                   b_path_ + R"(",")" + c_path_ + R"("]})");
  ASSERT_TRUE(response.Find("ok")->bool_value())
      << ErrorCode(response);
  const JsonValue* plan_json = response.Find("result")->Find("plan");
  ASSERT_TRUE(plan_json != nullptr);

  auto a = Dataset::Load(a_path_);
  auto b = Dataset::Load(b_path_);
  auto c = Dataset::Load(c_path_);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const auto plan = PlanMultiJoin({PlannerInput{a_path_, &*a},
                                   PlannerInput{b_path_, &*b},
                                   PlannerInput{c_path_, &*c}});
  ASSERT_TRUE(plan.ok());
  const auto expected = JsonValue::Parse(RenderPlanJson(*plan));
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(plan_json->Dump(), expected->Dump());
}

TEST_F(ServerTest, TwoWayPlanCardinalityIsThePairEstimateOnValidatedSizes) {
  // 3,000 uniform rects and 600 NaN ones, with 3,000 clustered rects: the
  // step multiplies the selectivity by the validated sizes it divides by.
  Dataset dirty = MakeUniform("u_nan", 3000, 3);
  for (int i = 0; i < 600; ++i) {
    dirty.Add(Rect(std::numeric_limits<double>::quiet_NaN(), 0.1, 0.2, 0.2));
  }
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  const Dataset clustered = gen::GaussianClusterRects(
      "c", 3000, Rect(0, 0, 1, 1), {{0.4, 0.7}, 0.1, 0.1, 1.0}, size, 4);
  const std::string dirty_path = ::testing::TempDir() + "/server_nan.ds";
  const std::string other_path = ::testing::TempDir() + "/server_cl.ds";
  ASSERT_TRUE(dirty.Save(dirty_path).ok() && clustered.Save(other_path).ok());
  Server server(ServerOptions{});
  const JsonValue response =
      Handle(&server, R"({"op":"plan","paths":[")" + dirty_path + R"(",")" +
                          other_path + R"("]})");
  std::remove(dirty_path.c_str());
  std::remove(other_path.c_str());
  ASSERT_TRUE(response.Find("ok")->bool_value()) << ErrorCode(response);
  const JsonValue* plan = response.Find("result")->Find("plan");
  EXPECT_EQ(plan->Find("inputs")->at(0).Find("n")->number_value(), 3000.0);
  const JsonValue& pair = plan->Find("pairs")->at(0);
  const JsonValue& step = plan->Find("steps")->at(0);
  EXPECT_EQ(step.Find("output_cardinality")->number_value(),
            pair.Find("estimated_pairs")->number_value());
}

TEST_F(ServerTest, RepeatedPlanIsAnsweredFromThePairCache) {
  Server server(ServerOptions{});
  const std::string plan = R"({"op":"plan","paths":[")" + a_path_ +
                           R"(",")" + b_path_ + R"(",")" + c_path_ + R"("]})";
  const JsonValue first = Handle(&server, plan);
  ASSERT_TRUE(first.Find("ok")->bool_value()) << ErrorCode(first);
  const double builds = Counter(&server, "hist.gh.builds");
  const double hits = Counter(&server, "server.catalog.estimate_hits");
  const JsonValue second = Handle(&server, plan);
  ASSERT_TRUE(second.Find("ok")->bool_value()) << ErrorCode(second);
  EXPECT_EQ(Counter(&server, "hist.gh.builds"), builds);
  EXPECT_EQ(Counter(&server, "server.catalog.estimate_hits"), hits + 3.0);
  EXPECT_EQ(second.Find("result")->Dump(), first.Find("result")->Dump());
}

TEST_F(ServerTest, PlanReusesAPairEstimateAlreadyServed) {
  Server server(ServerOptions{});
  ASSERT_TRUE(Handle(&server, R"({"op":"estimate","a":")" + a_path_ +
                                  R"(","b":")" + b_path_ + R"("})")
                  .Find("ok")
                  ->bool_value());
  const double builds = Counter(&server, "hist.gh.builds");
  const double hits = Counter(&server, "server.catalog.estimate_hits");
  const double misses = Counter(&server, "server.catalog.estimate_misses");
  const JsonValue response = Handle(
      &server, R"({"op":"plan","paths":[")" + a_path_ + R"(",")" + b_path_ +
                   R"(",")" + c_path_ + R"("]})");
  ASSERT_TRUE(response.Find("ok")->bool_value()) << ErrorCode(response);
  // (a, b) is a hit. a spans [0,1]^2, so (a, c) shares (a, b)'s grid,
  // where a keeps its summary: only c is built. (b, c) is on a grid of
  // its own and builds both.
  EXPECT_EQ(Counter(&server, "server.catalog.estimate_hits"), hits + 1.0);
  EXPECT_EQ(Counter(&server, "server.catalog.estimate_misses"), misses + 2.0);
  EXPECT_EQ(Counter(&server, "hist.gh.builds"), builds + 3.0);
}

// The bytes of `path`'s GH summary on `frame` at `level`: the histogram
// stored sparse when that is smaller, as the catalog keeps it.
uint64_t SummaryBytes(const std::string& path, const Rect& frame, int level) {
  const auto ds = Dataset::Load(path);
  EXPECT_TRUE(ds.ok());
  auto built = GhHistogram::Build(*ds, frame, level);
  EXPECT_TRUE(built.ok());
  return GhHistogram::Compact(std::move(built).value())->StoredBytes();
}

TEST_F(ServerTest, PairOnASharedGridReusesTheInputsSummary) {
  // Inputs framed to one [0,1]^2 extent: (a, c) after (a, b) builds only
  // c.
  ServerOptions options;
  options.estimator.gh_level = 4;
  Server server(options);
  const std::pair<const char*, size_t> inputs[] = {
      {"fa", 800}, {"fb", 600}, {"fc", 400}};
  std::vector<std::string> paths;
  for (const auto& [name, n] : inputs) {
    Dataset ds = MakeUniform(name, n, 31 + paths.size());
    ds.Add(Rect(0, 0, 0, 0));
    ds.Add(Rect(1, 1, 1, 1));
    paths.push_back(::testing::TempDir() + "/server_" + name + ".ds");
    ASSERT_TRUE(ds.Save(paths.back()).ok());
  }
  const auto estimate = [&](const std::string& a, const std::string& b) {
    return Handle(&server, R"({"op":"estimate","a":")" + a + R"(","b":")" +
                               b + R"("})");
  };
  ASSERT_TRUE(estimate(paths[0], paths[1]).Find("ok")->bool_value());
  const double builds = Counter(&server, "hist.gh.builds");
  const double hits = Counter(&server, "hist.gh.summary_hits");
  const JsonValue second = estimate(paths[0], paths[2]);
  ASSERT_TRUE(second.Find("ok")->bool_value()) << ErrorCode(second);
  EXPECT_EQ(Counter(&server, "hist.gh.builds"), builds + 1.0);
  EXPECT_EQ(Counter(&server, "hist.gh.summary_hits"), hits + 1.0);

  auto a = Dataset::Load(paths[0]);
  auto c = Dataset::Load(paths[2]);
  ASSERT_TRUE(a.ok() && c.ok());
  const auto standalone = GuardedEstimator(options.estimator).Estimate(*a, *c);
  ASSERT_TRUE(standalone.ok());
  EXPECT_EQ(second.Find("result")->Find("estimated_pairs")->number_value(),
            standalone->outcome.estimated_pairs);

  const JsonValue health = Handle(&server, R"({"op":"health"})");
  const JsonValue* result = health.Find("result");
  ASSERT_TRUE(result != nullptr);
  EXPECT_EQ(result->Find("gh_summaries")->number_value(), 3.0);
  // The bytes actually stored: the 800- and 600-rect inputs occupy most of
  // the 256 cells and stay dense; the 400-rect one is stored sparse.
  uint64_t bytes = 0;
  for (const std::string& path : paths) {
    bytes += SummaryBytes(path, Rect(0, 0, 1, 1), 4);
  }
  EXPECT_EQ(result->Find("gh_summary_bytes")->number_value(),
            static_cast<double>(bytes));
  EXPECT_LT(bytes, 3u * 256 * 4 * 8);
  for (const std::string& path : paths) std::remove(path.c_str());
}

// --- explain: the catalog's prepared inputs and their GH summaries ---

std::string ExplainLine(const std::string& a, const std::string& b,
                        int level) {
  return R"({"op":"explain","a":")" + a + R"(","b":")" + b +
         R"(","level":)" + std::to_string(level) + "}";
}

std::string EstimateLine(const std::string& a, const std::string& b) {
  return R"({"op":"estimate","a":")" + a + R"(","b":")" + b + R"("})";
}

// The answering trial of an explain report's chain.
const JsonValue* AnsweringTrial(const JsonValue& response) {
  const JsonValue* trials = response.Find("result")
                                ->Find("report")
                                ->Find("explain")
                                ->Find("chain")
                                ->Find("trials");
  for (const JsonValue& trial : trials->items()) {
    if (trial.Find("answered")->bool_value()) return &trial;
  }
  return nullptr;
}

TEST_F(ServerTest, ExplainAfterEstimateReadsTheInputsSummaries) {
  ServerOptions options;
  options.estimator.gh_level = 4;  // 4^4 cells: both fixtures keep one
  Server server(options);
  ASSERT_TRUE(
      Handle(&server, EstimateLine(a_path_, b_path_)).Find("ok")->bool_value());
  const double builds = Counter(&server, "hist.gh.builds");
  const JsonValue explained =
      Handle(&server, ExplainLine(a_path_, b_path_, 4));
  ASSERT_TRUE(explained.Find("ok")->bool_value()) << ErrorCode(explained);
  EXPECT_EQ(Counter(&server, "hist.gh.builds"), builds);
}

TEST_F(ServerTest, ExplainUnderClampReportsWhatEstimateAnswers) {
  // 500 rects plus one inverted rect, which clamp repairs per pair.
  Dataset ds = MakeUniform("inv", 500, 51);
  ds.Add(Rect(0.9, 0.9, 0.2, 0.1));
  const std::string path = ::testing::TempDir() + "/server_inverted.ds";
  ASSERT_TRUE(ds.Save(path).ok());
  ServerOptions options;
  options.estimator.policy = ValidationPolicy::kClampToExtent;
  Server server(options);
  const JsonValue est = Handle(&server, EstimateLine(path, b_path_));
  const JsonValue explained = Handle(&server, ExplainLine(path, b_path_, 7));
  std::remove(path.c_str());
  ASSERT_TRUE(est.Find("ok")->bool_value()) << ErrorCode(est);
  ASSERT_TRUE(explained.Find("ok")->bool_value()) << ErrorCode(explained);
  const JsonValue* answered = est.Find("result");
  EXPECT_NE(answered->Find("validation_a")->string_value().find("clamped=1"),
            std::string::npos);
  const JsonValue* trial = AnsweringTrial(explained);
  ASSERT_TRUE(trial != nullptr);
  EXPECT_EQ(trial->Find("raw_pairs")->number_value(),
            answered->Find("estimated_pairs")->number_value());
  const JsonValue* report =
      explained.Find("result")->Find("report")->Find("explain");
  EXPECT_EQ(report->Find("estimated_pairs")->number_value(),
            answered->Find("estimated_pairs")->number_value());
  EXPECT_EQ(report->Find("dataset_a")->Find("validated")->number_value(),
            501.0);
}

TEST_F(ServerTest, ExplainUnderRejectFailsAsEstimateDoes) {
  Dataset ds = MakeUniform("bad", 300, 52);
  ds.Add(Rect(std::numeric_limits<double>::quiet_NaN(), 0, 1, 1));
  const std::string path = ::testing::TempDir() + "/server_reject.ds";
  ASSERT_TRUE(ds.Save(path).ok());
  ServerOptions options;
  options.estimator.policy = ValidationPolicy::kReject;
  Server server(options);
  const JsonValue est = Handle(&server, EstimateLine(path, b_path_));
  const JsonValue explained = Handle(&server, ExplainLine(path, b_path_, 7));
  std::remove(path.c_str());
  ASSERT_FALSE(est.Find("ok")->bool_value());
  ASSERT_FALSE(explained.Find("ok")->bool_value());
  EXPECT_EQ(ErrorCode(explained), ErrorCode(est));
  EXPECT_EQ(explained.Find("error")->Find("message")->string_value(),
            est.Find("error")->Find("message")->string_value());
}

TEST_F(ServerTest, ExplainOfANameWithAControlCharacterIsValidJson) {
  const Dataset rects = MakeUniform("t", 300, 53);
  const Dataset ds("tab\tname", rects.rects());
  const std::string path = ::testing::TempDir() + "/server_tab.ds";
  ASSERT_TRUE(ds.Save(path).ok());
  Server server(ServerOptions{});
  const JsonValue explained = Handle(&server, ExplainLine(path, b_path_, 4));
  std::remove(path.c_str());
  ASSERT_TRUE(explained.Find("ok")->bool_value()) << ErrorCode(explained);
  EXPECT_EQ(explained.Find("result")
                ->Find("report")
                ->Find("explain")
                ->Find("dataset_a")
                ->Find("name")
                ->string_value(),
            "tab\tname");
}

TEST_F(ServerTest, ExplainAtAnotherLevelLeavesTheChainsGrid) {
  // An explain at level 5 adds a second grid to a's and b's slots; their
  // level-4 summaries stay, so (a, c) builds only c.
  ServerOptions options;
  options.estimator.gh_level = 4;
  Server server(options);
  ASSERT_TRUE(
      Handle(&server, EstimateLine(a_path_, b_path_)).Find("ok")->bool_value());
  ASSERT_TRUE(
      Handle(&server, ExplainLine(a_path_, b_path_, 5)).Find("ok")->bool_value());
  const double builds = Counter(&server, "hist.gh.builds");
  const double hits = Counter(&server, "hist.gh.summary_hits");
  const double evictions = Counter(&server, "hist.gh.summary_evictions");
  ASSERT_TRUE(
      Handle(&server, EstimateLine(a_path_, c_path_)).Find("ok")->bool_value());
  EXPECT_EQ(Counter(&server, "hist.gh.builds"), builds + 1.0);
  EXPECT_EQ(Counter(&server, "hist.gh.summary_hits"), hits + 1.0);
  EXPECT_EQ(Counter(&server, "hist.gh.summary_evictions"), evictions);
  const JsonValue health = Handle(&server, R"({"op":"health"})");
  EXPECT_EQ(health.Find("result")->Find("gh_summaries")->number_value(), 5.0);
}

TEST_F(ServerTest, EstimateAfterExplainAtAnotherLevelIsBitIdentical) {
  // An explain at level 5 adds level-5 summaries of a and b; the next
  // estimates at level 4 answer the bits a fresh server answers.
  ServerOptions options;
  options.estimator.gh_level = 4;
  Server server(options);
  Server fresh(options);
  ASSERT_TRUE(
      Handle(&server, ExplainLine(a_path_, b_path_, 5)).Find("ok")->bool_value());
  for (const auto& [x, y] : {std::pair{a_path_, c_path_},
                             std::pair{b_path_, a_path_}}) {
    const JsonValue after = Handle(&server, EstimateLine(x, y));
    const JsonValue clean = Handle(&fresh, EstimateLine(x, y));
    ASSERT_TRUE(after.Find("ok")->bool_value() && clean.Find("ok")->bool_value());
    EXPECT_EQ(after.Find("result")->Dump(), clean.Find("result")->Dump());
  }
}

TEST_F(ServerTest, ExactAuditOfNanRectsReadsTheValidatedRects) {
  // 3,000 clean rects plus NaN and inverted ones, against a clean file.
  // The exact reference joins the rects the estimate read, so the GH
  // answer is well inside a 10% alarm.
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.01, 0.01, 0.5};
  Dataset dirty = gen::UniformRects("dirty", 3000, Rect(0, 0, 1, 1), size, 5);
  for (int i = 0; i < 5; ++i) {
    dirty.Add(Rect(std::numeric_limits<double>::quiet_NaN(), 0.1 * i, 0.5,
                   0.6));
  }
  for (int i = 0; i < 3; ++i) dirty.Add(Rect(0.6 + 0.1 * i, 0.2, 0.3, 0.5));
  const Dataset clean =
      gen::UniformRects("clean", 3000, Rect(0, 0, 1, 1), size, 6);
  const std::string dirty_path = ::testing::TempDir() + "/server_dirty.ds";
  const std::string clean_path = ::testing::TempDir() + "/server_clean.ds";
  ASSERT_TRUE(dirty.Save(dirty_path).ok());
  ASSERT_TRUE(clean.Save(clean_path).ok());
  ServerOptions options;
  options.audit_rate = 1.0;
  options.audit_exact_cap = 1000000;
  options.audit_alarm = 0.1;
  Server server(options);
  const double audits = Counter(&server, "accuracy.audits");
  const double alarms = Counter(&server, "accuracy.drift_alarm");
  const JsonValue est = Handle(&server, EstimateLine(dirty_path, clean_path));
  std::remove(dirty_path.c_str());
  std::remove(clean_path.c_str());
  ASSERT_TRUE(est.Find("ok")->bool_value()) << ErrorCode(est);
  EXPECT_EQ(Counter(&server, "accuracy.audits"), audits + 1.0);
  EXPECT_EQ(Counter(&server, "accuracy.drift_alarm"), alarms);
}

TEST_F(ServerTest, StatsOfADatasetWithANonFiniteRectIsValidJson) {
  // The first rect is NaN: the statistics come from the prepared input,
  // whose extent and rects leave it out.
  Dataset ds("nan_first");
  ds.Add(Rect(std::numeric_limits<double>::quiet_NaN(), 0, 1, 1));
  const Dataset clean = MakeUniform("clean", 300, 41);
  for (const Rect& r : clean.rects()) ds.Add(r);
  const std::string path = ::testing::TempDir() + "/server_nan_first.ds";
  ASSERT_TRUE(ds.Save(path).ok());
  Server server(ServerOptions{});
  const std::string response =
      server.HandleLine(R"({"op":"stats","path":")" + path + R"("})");
  std::remove(path.c_str());
  const auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  ASSERT_TRUE(parsed->Find("ok")->bool_value()) << response;
  const JsonValue* result = parsed->Find("result");
  EXPECT_EQ(result->Find("n")->number_value(), 300.0);
  for (const char* key :
       {"n", "coverage", "avg_width", "avg_height", "extent_area"}) {
    const JsonValue* value = result->Find(key);
    ASSERT_TRUE(value != nullptr && value->is_number()) << key;
    EXPECT_TRUE(std::isfinite(value->number_value())) << key;
  }
}

TEST_F(ServerTest, StatsWithPathReportsDatasetStatistics) {
  Server server(ServerOptions{});
  const JsonValue response =
      Handle(&server, R"({"op":"stats","path":")" + a_path_ + R"("})");
  ASSERT_TRUE(response.Find("ok")->bool_value());
  EXPECT_DOUBLE_EQ(response.Find("result")->Find("n")->number_value(), 800.0);
}

TEST_F(ServerTest, StatsSnapshotCarriesServerMetrics) {
  Server server(ServerOptions{});
  Handle(&server, R"({"op":"ping"})");
  Handle(&server, R"({"op":"estimate","a":")" + a_path_ + R"(","b":")" +
                      b_path_ + R"("})");
  const JsonValue response = Handle(&server, R"({"op":"stats"})");
  ASSERT_TRUE(response.Find("ok")->bool_value());
  const JsonValue* result = response.Find("result");
  EXPECT_GE(result->Find("requests_served")->number_value(), 3.0);
  const JsonValue* counters = result->Find("metrics")->Find("counters");
  ASSERT_TRUE(counters != nullptr);
  // Requests are metered even though the process never armed metrics:
  // each request arms the registry for its own scope.
  EXPECT_GE(counters->Find("server.requests.received")->number_value(), 3.0);
  EXPECT_GE(counters->Find("server.requests.answered")->number_value(), 2.0);
}

TEST_F(ServerTest, ShutdownOpStopsAcceptingWork) {
  Server server(ServerOptions{});
  const JsonValue response = Handle(&server, R"({"op":"shutdown"})");
  EXPECT_TRUE(response.Find("ok")->bool_value());
  EXPECT_TRUE(server.stop_requested());
  // In-flight/queued requests after the stop get a structured error...
  const JsonValue rejected = Handle(
      &server, R"({"op":"estimate","a":")" + a_path_ + R"(","b":")" +
                   b_path_ + R"("})");
  EXPECT_EQ(ErrorCode(rejected), kErrShuttingDown);
  // ...but ping still answers, so health checks see the drain.
  EXPECT_TRUE(Handle(&server, R"({"op":"ping"})").Find("ok")->bool_value());
}

// --- telemetry and correlation tests ---

TEST_F(ServerTest, ClientRequestIdIsEchoedVerbatim) {
  Server server(ServerOptions{});
  const JsonValue response = Handle(
      &server, R"({"id":1,"op":"ping","request_id":"corr-abc-123"})");
  EXPECT_TRUE(response.Find("ok")->bool_value());
  ASSERT_TRUE(response.Find("request_id") != nullptr);
  EXPECT_EQ(response.Find("request_id")->string_value(), "corr-abc-123");
}

TEST_F(ServerTest, ServerGeneratesRequestIdWhenAbsent) {
  Server server(ServerOptions{});
  const JsonValue first = Handle(&server, R"({"op":"ping"})");
  const JsonValue second = Handle(&server, R"({"op":"ping"})");
  ASSERT_TRUE(first.Find("request_id") != nullptr);
  ASSERT_TRUE(second.Find("request_id") != nullptr);
  const std::string id1 = first.Find("request_id")->string_value();
  const std::string id2 = second.Find("request_id")->string_value();
  EXPECT_EQ(id1.rfind("srv-", 0), 0u) << id1;
  EXPECT_EQ(id2.rfind("srv-", 0), 0u) << id2;
  EXPECT_NE(id1, id2);
}

TEST_F(ServerTest, BadRequestStillCarriesARequestId) {
  // Even an unparseable line gets a generated id so the failure can be
  // found again in the slowlog and the structured log.
  Server server(ServerOptions{});
  const JsonValue response = Handle(&server, "{nope");
  EXPECT_EQ(ErrorCode(response), kErrBadRequest);
  ASSERT_TRUE(response.Find("request_id") != nullptr);
  EXPECT_EQ(response.Find("request_id")->string_value().rfind("srv-", 0), 0u);
}

TEST_F(ServerTest, MetricsOpExposesOpenMetricsAndSnapshot) {
  Server server(ServerOptions{});
  Handle(&server, R"({"op":"ping"})");
  const JsonValue response = Handle(&server, R"({"op":"metrics"})");
  ASSERT_TRUE(response.Find("ok")->bool_value());
  const JsonValue* result = response.Find("result");
  ASSERT_TRUE(result != nullptr);
  ASSERT_TRUE(result->Find("openmetrics") != nullptr);
  const std::string om = result->Find("openmetrics")->string_value();
  EXPECT_NE(om.find("sjsel_server_requests_received_total"),
            std::string::npos);
  EXPECT_NE(om.find("sjsel_server_request_us"), std::string::npos);
  ASSERT_GE(om.size(), 6u);
  EXPECT_EQ(om.rfind("# EOF\n"), om.size() - 6);
  const JsonValue* snapshot = result->Find("snapshot");
  ASSERT_TRUE(snapshot != nullptr);
  const JsonValue* counters = snapshot->Find("counters");
  ASSERT_TRUE(counters != nullptr);
  ASSERT_TRUE(counters->Find("server.requests.received") != nullptr);
  EXPECT_GE(counters->Find("server.requests.received")->number_value(), 1.0);
  // Every request records its latency, so the ping before this scrape is
  // already in the histogram.
  const JsonValue* hist =
      snapshot->Find("histograms")->Find("server.request_us");
  ASSERT_TRUE(hist != nullptr);
  EXPECT_GE(hist->Find("count")->number_value(), 1.0);
}

TEST_F(ServerTest, HealthOpReportsServerState) {
  Server server(ServerOptions{});
  Handle(&server, R"({"op":"estimate","a":")" + a_path_ + R"(","b":")" +
                      b_path_ + R"("})");
  const JsonValue response = Handle(&server, R"({"op":"health"})");
  ASSERT_TRUE(response.Find("ok")->bool_value());
  const JsonValue* result = response.Find("result");
  ASSERT_TRUE(result != nullptr);
  EXPECT_EQ(result->Find("status")->string_value(), "ok");
  EXPECT_TRUE(result->Find("ready")->bool_value());
  EXPECT_EQ(result->Find("version")->string_value(), kSjselVersion);
  EXPECT_FALSE(result->Find("kernel_backend")->string_value().empty());
  EXPECT_GE(result->Find("uptime_s")->number_value(), 0.0);
  EXPECT_GE(result->Find("datasets_cached")->number_value(), 2.0);
  EXPECT_GE(result->Find("estimates_cached")->number_value(), 1.0);
  // Both inputs keep a summary on the pair's level-7 grid. 800 and 600
  // rects occupy few of its 16,384 cells, so both are stored sparse.
  EXPECT_EQ(result->Find("gh_summaries")->number_value(), 2.0);
  const auto a = Dataset::Load(a_path_);
  const auto b = Dataset::Load(b_path_);
  ASSERT_TRUE(a.ok() && b.ok());
  Rect frame = a->ComputeExtent();
  frame.Extend(b->ComputeExtent());
  const uint64_t bytes =
      SummaryBytes(a_path_, frame, 7) + SummaryBytes(b_path_, frame, 7);
  EXPECT_EQ(result->Find("gh_summary_bytes")->number_value(),
            static_cast<double>(bytes));
  EXPECT_LT(bytes, 2u * 16384 * 4 * 8);
  EXPECT_EQ(result->Find("streams_open")->number_value(), 0.0);
  EXPECT_EQ(result->Find("streams_poisoned")->number_value(), 0.0);
}

TEST_F(ServerTest, SlowlogOpReturnsRequestsSlowestFirst) {
  ServerOptions options;
  options.slowlog_capacity = 8;
  Server server(options);
  Handle(&server, R"({"op":"ping","request_id":"probe-ping"})");
  Handle(&server, R"({"op":"estimate","a":")" + a_path_ + R"(","b":")" +
                      b_path_ + R"(","request_id":"probe-estimate"})");
  const JsonValue response = Handle(&server, R"({"op":"slowlog"})");
  ASSERT_TRUE(response.Find("ok")->bool_value());
  const JsonValue* result = response.Find("result");
  ASSERT_TRUE(result != nullptr);
  EXPECT_EQ(result->Find("capacity")->number_value(), 8.0);
  EXPECT_GE(result->Find("recorded")->number_value(), 2.0);
  const JsonValue* entries = result->Find("entries");
  ASSERT_TRUE(entries != nullptr && entries->is_array());
  ASSERT_GE(entries->size(), 2u);
  // Slowest-first order and latency monotonicity.
  for (size_t i = 1; i < entries->size(); ++i) {
    EXPECT_GE(entries->at(i - 1).Find("latency_us")->number_value(),
              entries->at(i).Find("latency_us")->number_value());
  }
  // Both probes are present with their ids; the estimate carries its rung
  // in the note and an estimate is never faster than a ping.
  bool saw_ping = false, saw_estimate = false;
  for (const JsonValue& e : entries->items()) {
    const std::string id = e.Find("request_id")->string_value();
    if (id == "probe-ping") saw_ping = true;
    if (id == "probe-estimate") {
      saw_estimate = true;
      EXPECT_TRUE(e.Find("ok")->bool_value());
      EXPECT_EQ(e.Find("note")->string_value().rfind("rung=", 0), 0u);
    }
  }
  EXPECT_TRUE(saw_ping);
  EXPECT_TRUE(saw_estimate);

  // `top` bounds the reply.
  const JsonValue limited =
      Handle(&server, R"({"op":"slowlog","top":1})");
  ASSERT_TRUE(limited.Find("ok")->bool_value());
  EXPECT_EQ(limited.Find("result")->Find("entries")->size(), 1u);
}

TEST_F(ServerTest, FailedRequestsLandInSlowlogWithErrorNote) {
  Server server(ServerOptions{});
  Handle(&server, R"({"op":"frobnicate","request_id":"bad-op-1"})");
  const JsonValue response = Handle(&server, R"({"op":"slowlog"})");
  bool found = false;
  for (const JsonValue& e :
       response.Find("result")->Find("entries")->items()) {
    if (e.Find("request_id")->string_value() != "bad-op-1") continue;
    found = true;
    EXPECT_FALSE(e.Find("ok")->bool_value());
    EXPECT_EQ(e.Find("note")->string_value(),
              std::string("error:") + kErrUnknownOp);
  }
  EXPECT_TRUE(found);
}

TEST_F(ServerTest, DrainingServerStillAnswersTelemetryOps) {
  Server server(ServerOptions{});
  Handle(&server, R"({"op":"shutdown"})");
  // Work is rejected...
  const JsonValue rejected = Handle(
      &server, R"({"op":"estimate","a":")" + a_path_ + R"(","b":")" +
                   b_path_ + R"("})");
  EXPECT_EQ(ErrorCode(rejected), kErrShuttingDown);
  // ...but scraping keeps working: a stopping server is precisely when
  // operators want its vitals.
  const JsonValue health = Handle(&server, R"({"op":"health"})");
  ASSERT_TRUE(health.Find("ok")->bool_value());
  EXPECT_EQ(health.Find("result")->Find("status")->string_value(),
            "draining");
  EXPECT_FALSE(health.Find("result")->Find("ready")->bool_value());
  EXPECT_TRUE(
      Handle(&server, R"({"op":"metrics"})").Find("ok")->bool_value());
  EXPECT_TRUE(
      Handle(&server, R"({"op":"slowlog"})").Find("ok")->bool_value());
}

TEST_F(ServerTest, StatsReportsUptimeVersionAndBackend) {
  Server server(ServerOptions{});
  const JsonValue response = Handle(&server, R"({"op":"stats"})");
  ASSERT_TRUE(response.Find("ok")->bool_value());
  const JsonValue* result = response.Find("result");
  EXPECT_EQ(result->Find("version")->string_value(), kSjselVersion);
  EXPECT_GE(result->Find("uptime_s")->number_value(), 0.0);
  EXPECT_FALSE(result->Find("compiler")->string_value().empty());
  EXPECT_FALSE(result->Find("kernel_backend")->string_value().empty());
}

TEST_F(ServerTest, AuditRateOnePublishesAccuracyMetrics) {
  ServerOptions options;
  options.audit_rate = 1.0;
  options.audit_exact_cap = 10000;  // both fixtures fit → exact reference
  Server server(options);
  const JsonValue est = Handle(
      &server, R"({"op":"estimate","a":")" + a_path_ + R"(","b":")" +
                   b_path_ + R"("})");
  ASSERT_TRUE(est.Find("ok")->bool_value());
  const JsonValue metrics = Handle(&server, R"({"op":"metrics"})");
  const JsonValue* snapshot = metrics.Find("result")->Find("snapshot");
  ASSERT_TRUE(snapshot != nullptr);
  const JsonValue* audits = snapshot->Find("counters")->Find("accuracy.audits");
  ASSERT_TRUE(audits != nullptr);
  EXPECT_GE(audits->number_value(), 1.0);
  const JsonValue* rel =
      snapshot->Find("histograms")->Find("accuracy.rel_error");
  ASSERT_TRUE(rel != nullptr);
  EXPECT_GE(rel->Find("count")->number_value(), 1.0);
  // The GH estimate vs an exact count on uniform data is well inside the
  // 50% default alarm, so no drift alarm may fire.
  const JsonValue* alarms =
      snapshot->Find("counters")->Find("accuracy.drift_alarm");
  if (alarms != nullptr) {
    EXPECT_EQ(alarms->number_value(), 0.0);
  }
}

// --- socket tests ---

std::string SocketPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST_F(ServerTest, SocketRoundTripAndGracefulShutdown) {
  ServerOptions options;
  options.socket_path = SocketPath("sjsel_rt.sock");
  options.workers = 2;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  auto response = client.Call(R"({"id":1,"op":"ping"})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("\"pong\":true"), std::string::npos);

  // Pipelined calls on one connection come back in order.
  response = client.Call(R"({"id":2,"op":"estimate","a":")" + a_path_ +
                         R"(","b":")" + b_path_ + R"("})");
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("\"id\":2"), std::string::npos);
  EXPECT_NE(response->find("\"ok\":true"), std::string::npos);

  response = client.Call(R"({"op":"shutdown"})");
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("\"stopping\":true"), std::string::npos);
  server.Stop();
  EXPECT_GE(server.requests_served(), 3u);
}

TEST_F(ServerTest, ConcurrentClientsAllGetAnswers) {
  ServerOptions options;
  options.socket_path = SocketPath("sjsel_mt.sock");
  options.workers = 4;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Client client;
      if (!client.Connect(options.socket_path).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCallsPerThread; ++i) {
        // Alternate cheap and estimator-heavy ops so workers contend on
        // the shared catalog while others ping.
        const std::string request =
            (i % 2 == 0)
                ? R"({"op":"ping"})"
                : R"({"op":"estimate","a":")" + a_path_ + R"(","b":")" +
                      ((t % 2 == 0) ? b_path_ : c_path_) + R"("})";
        const auto response = client.Call(request);
        if (!response.ok() ||
            response->find("\"ok\":true") == std::string::npos) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.requests_served(),
            static_cast<uint64_t>(kThreads * kCallsPerThread));
  server.Stop();
}

TEST_F(ServerTest, ZeroQueueRejectsWithOverloaded) {
  ServerOptions options;
  options.socket_path = SocketPath("sjsel_full.sock");
  options.workers = 1;
  options.max_queue = 0;  // every accepted connection is beyond capacity
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  const auto response = client.Call(R"({"op":"ping"})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find(kErrOverloaded), std::string::npos) << *response;
  server.Stop();
}

TEST_F(ServerTest, OverlongLineClosesWithBadRequest) {
  ServerOptions options;
  options.socket_path = SocketPath("sjsel_long.sock");
  options.max_line_bytes = 64;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  // > one read chunk (4096) so the overflow check must fire before the
  // terminating newline can arrive.
  const std::string huge(8192, 'x');
  const auto response = client.Call("{\"op\":\"" + huge + "\"}");
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find(kErrBadRequest), std::string::npos);
  server.Stop();
}

TEST_F(ServerTest, StreamOpsValidateTheirInputs) {
  Server server(ServerOptions{});
  for (const char* line :
       {R"({"op":"ingest"})", R"({"op":"checkpoint"})",
        R"({"op":"stream_estimate"})", R"({"op":"stream_stats"})"}) {
    const JsonValue response = Handle(&server, line);
    EXPECT_FALSE(response.Find("ok")->bool_value()) << line;
    EXPECT_EQ(ErrorCode(response), kErrBadRequest) << line;
  }
  // A stream directory that was never initialized cannot be opened.
  const JsonValue missing = Handle(
      &server,
      R"({"op":"stream_stats","stream":")" + ::testing::TempDir() +
          R"(/no_such_stream"})");
  EXPECT_FALSE(missing.Find("ok")->bool_value());
  EXPECT_NE(ErrorCode(missing), "");
}

TEST_F(ServerTest, IngestLifecycleOverHandleLine) {
  const std::string dir = ::testing::TempDir() + "/server_stream";
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/MANIFEST").c_str());
  Server server(ServerOptions{});

  // Init (extent present) and first batch in one request.
  const JsonValue init = Handle(
      &server, R"({"op":"ingest","stream":")" + dir +
                   R"(","extent":[0,0,1,1],"level":4,"ph_level":3,)" +
                   R"("seal_every":2,)" +
                   R"("adds":[[0.1,0.1,0.2,0.2],[0.5,0.5,0.6,0.6]]})");
  ASSERT_TRUE(init.Find("ok")->bool_value());
  EXPECT_EQ(init.Find("result")->Find("seq")->number_value(), 1.0);

  // Init without ops is legal; ops without extent reuse the open stream.
  const JsonValue batch2 = Handle(
      &server, R"({"op":"ingest","stream":")" + dir +
                   R"(","adds":[[0.3,0.3,0.4,0.4]],)" +
                   R"("removes":[[0.1,0.1,0.2,0.2]]})");
  ASSERT_TRUE(batch2.Find("ok")->bool_value());
  EXPECT_EQ(batch2.Find("result")->Find("seq")->number_value(), 2.0);
  // seal_every=2: the second batch sealed, so snapshots see seq 2.
  EXPECT_EQ(batch2.Find("result")->Find("snapshot_seq")->number_value(), 2.0);

  // Re-init of an open stream is refused.
  const JsonValue reinit = Handle(
      &server, R"({"op":"ingest","stream":")" + dir +
                   R"(","extent":[0,0,1,1]})");
  EXPECT_FALSE(reinit.Find("ok")->bool_value());

  // stream_estimate against a dataset matches the standalone build over
  // the snapshot bit for bit.
  const JsonValue est = Handle(
      &server, R"({"op":"stream_estimate","stream":")" + dir +
                   R"(","b":")" + b_path_ + R"("})");
  ASSERT_TRUE(est.Find("ok")->bool_value());
  {
    auto gh = GhHistogram::CreateEmpty(Rect(0, 0, 1, 1), 4);
    ASSERT_TRUE(gh.ok());
    gh->AddRect(Rect(0.1, 0.1, 0.2, 0.2));
    gh->AddRect(Rect(0.5, 0.5, 0.6, 0.6));
    gh->AddRect(Rect(0.3, 0.3, 0.4, 0.4));
    gh->RemoveRect(Rect(0.1, 0.1, 0.2, 0.2));
    auto b = Dataset::Load(b_path_);
    ASSERT_TRUE(b.ok());
    const auto bh = GhHistogram::Build(*b, Rect(0, 0, 1, 1), 4);
    ASSERT_TRUE(bh.ok());
    // Server state is one sealed delta merged into an empty base; with a
    // single delta the left-fold sum equals the direct AddRect order.
    EXPECT_EQ(est.Find("result")->Find("estimated_pairs")->number_value(),
              EstimateGhJoinPairs(*gh, *bh).value());
  }
  EXPECT_EQ(est.Find("result")->Find("stream_n")->number_value(), 2.0);

  // Checkpoint re-bases durability and stream_stats reports it.
  const JsonValue ckpt = Handle(
      &server, R"({"op":"checkpoint","stream":")" + dir + R"("})");
  ASSERT_TRUE(ckpt.Find("ok")->bool_value());
  EXPECT_EQ(ckpt.Find("result")->Find("checkpoint_seq")->number_value(), 2.0);

  const JsonValue stats = Handle(
      &server, R"({"op":"stream_stats","stream":")" + dir + R"("})");
  ASSERT_TRUE(stats.Find("ok")->bool_value());
  const JsonValue* result = stats.Find("result");
  EXPECT_EQ(result->Find("seq")->number_value(), 2.0);
  EXPECT_EQ(result->Find("checkpoint_seq")->number_value(), 2.0);
  EXPECT_EQ(result->Find("active_batches")->number_value(), 0.0);
  ASSERT_TRUE(result->Find("recovery") != nullptr);
  EXPECT_EQ(result->Find("recovery")->Find("tail_error")->string_value(),
            "");

  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/MANIFEST").c_str());
  std::remove((dir + "/base.2.gh").c_str());
  std::remove((dir + "/base.2.ph").c_str());
}

// A fresh stream directory at `leaf`, initialized over the unit square
// with `adds` as its first batch and sealed after every batch.
std::string InitStreamOverHandleLine(Server* server, const std::string& leaf,
                                     const std::string& adds) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/MANIFEST").c_str());
  const std::string response = server->HandleLine(
      R"({"op":"ingest","stream":")" + dir +
      R"(","extent":[0,0,1,1],"seal_every":1,"adds":)" + adds + "}");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  return dir;
}

void RemoveStream(const std::string& dir) {
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/MANIFEST").c_str());
}

TEST_F(ServerTest, StreamEstimateIsClampedLikeEstimate) {
  // One rect covering the whole frame on both sides: the raw GH estimate
  // is 4, but one rect joins one rect at most once.
  const std::string one = ::testing::TempDir() + "/server_one_rect.ds";
  Dataset ds("one");
  ds.Add(Rect(0, 0, 1, 1));
  ASSERT_TRUE(ds.Save(one).ok());
  Server server(ServerOptions{});
  const std::string dir =
      InitStreamOverHandleLine(&server, "server_stream_one", "[[0,0,1,1]]");

  const JsonValue est = Handle(
      &server, R"({"op":"stream_estimate","stream":")" + dir +
                   R"(","b":")" + one + R"("})");
  ASSERT_TRUE(est.Find("ok")->bool_value());
  const JsonValue* result = est.Find("result");
  EXPECT_EQ(result->Find("estimated_pairs")->number_value(), 1.0);
  EXPECT_EQ(result->Find("selectivity")->number_value(), 1.0);
  EXPECT_TRUE(result->Find("clamped")->bool_value());

  const JsonValue pair = Handle(
      &server,
      R"({"op":"estimate","a":")" + one + R"(","b":")" + one + R"("})");
  ASSERT_TRUE(pair.Find("ok")->bool_value());
  EXPECT_EQ(pair.Find("result")->Find("estimated_pairs")->number_value(),
            1.0);
  EXPECT_TRUE(pair.Find("result")->Find("clamped")->bool_value());
  RemoveStream(dir);
  std::remove(one.c_str());
}

TEST_F(ServerTest, AuditedStreamEstimateBuildsBOnce) {
  // The snapshot and MaterializeState() share the stream's grid, so one
  // build of b serves both the answer and the audit's reference, and b's
  // summary slot keeps it: a second request with the same b builds
  // nothing.
  ServerOptions options;
  options.audit_rate = 1.0;
  Server server(options);
  const std::string dir = InitStreamOverHandleLine(
      &server, "server_stream_audit", "[[0.1,0.1,0.3,0.3],[0.4,0.4,0.6,0.7]]");
  const std::string line = R"({"op":"stream_estimate","stream":")" + dir +
                           R"(","b":")" + a_path_ + R"("})";
  for (int i = 0; i < 2; ++i) {
    const double builds = Counter(&server, "hist.gh.builds");
    const double audits = Counter(&server, "accuracy.audits");
    const JsonValue est = Handle(&server, line);
    ASSERT_TRUE(est.Find("ok")->bool_value()) << ErrorCode(est);
    EXPECT_EQ(Counter(&server, "hist.gh.builds"),
              builds + (i == 0 ? 1.0 : 0.0));
    EXPECT_EQ(Counter(&server, "accuracy.audits"), audits + 1.0);
  }
  RemoveStream(dir);
}

TEST_F(ServerTest, StreamEstimateQuarantinesNanRectsOfB) {
  Dataset clean("clean");
  clean.Add(Rect(0.1, 0.2, 0.4, 0.7));
  clean.Add(Rect(0.3, 0.0, 0.6, 0.5));
  Dataset first_bad("first_bad");
  first_bad.Add(Rect(std::numeric_limits<double>::quiet_NaN(), 0, 0.5, 0.5));
  for (const Rect& r : clean.rects()) first_bad.Add(r);
  const std::string clean_path = ::testing::TempDir() + "/server_clean2.ds";
  const std::string bad_path = ::testing::TempDir() + "/server_nan_first.ds";
  ASSERT_TRUE(clean.Save(clean_path).ok());
  ASSERT_TRUE(first_bad.Save(bad_path).ok());

  Server server(ServerOptions{});
  const std::string dir = InitStreamOverHandleLine(
      &server, "server_stream_nan",
      "[[0.05,0.05,0.35,0.35],[0.2,0.3,0.5,0.9],[0.5,0.1,0.8,0.4]]");
  const auto stream_estimate = [&](const std::string& b) {
    return Handle(&server, R"({"op":"stream_estimate","stream":")" + dir +
                               R"(","b":")" + b + R"("})");
  };
  const JsonValue bad = stream_estimate(bad_path);
  const JsonValue good = stream_estimate(clean_path);
  ASSERT_TRUE(bad.Find("ok")->bool_value());
  ASSERT_TRUE(good.Find("ok")->bool_value());
  EXPECT_EQ(bad.Find("result")->Find("estimated_pairs")->number_value(),
            good.Find("result")->Find("estimated_pairs")->number_value());
  EXPECT_EQ(bad.Find("result")->Find("selectivity")->number_value(),
            good.Find("result")->Find("selectivity")->number_value());
  EXPECT_FALSE(bad.Find("result")->Find("clamped")->bool_value());
  const std::string counters =
      bad.Find("result")->Find("validation_b")->string_value();
  EXPECT_NE(counters.find("checked=3 non_finite=1"), std::string::npos)
      << counters;
  EXPECT_NE(counters.find("quarantined=1"), std::string::npos) << counters;

  // Under reject, the defective b fails with the error `estimate` gives.
  ServerOptions strict;
  strict.estimator.policy = ValidationPolicy::kReject;
  Server reject(strict);
  const std::string strict_dir = InitStreamOverHandleLine(
      &reject, "server_stream_nan_reject", "[[0.05,0.05,0.35,0.35]]");
  const JsonValue refused = Handle(
      &reject, R"({"op":"stream_estimate","stream":")" + strict_dir +
                   R"(","b":")" + bad_path + R"("})");
  const JsonValue pair_refused = Handle(
      &reject, R"({"op":"estimate","a":")" + clean_path + R"(","b":")" +
                   bad_path + R"("})");
  EXPECT_FALSE(refused.Find("ok")->bool_value());
  EXPECT_FALSE(pair_refused.Find("ok")->bool_value());
  EXPECT_NE(ErrorCode(refused), "");
  EXPECT_EQ(ErrorCode(refused), ErrorCode(pair_refused));
  EXPECT_EQ(refused.Find("error")->Find("message")->string_value(),
            pair_refused.Find("error")->Find("message")->string_value());
  RemoveStream(dir);
  RemoveStream(strict_dir);
  std::remove(clean_path.c_str());
  std::remove(bad_path.c_str());
}

TEST_F(ServerTest, ConnectWithRetryWaitsOutServerStartup) {
  ServerOptions options;
  options.socket_path = SocketPath("sjsel_retry.sock");
  std::remove(options.socket_path.c_str());
  Server server(options);

  // Start the server only after the client has begun retrying: the first
  // attempts see ENOENT (no socket yet), later ones succeed.
  std::thread starter([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_TRUE(server.Start().ok());
  });
  Client client;
  const Status connected =
      client.ConnectWithRetry(options.socket_path, /*attempts=*/50,
                              /*initial_backoff_ms=*/10);
  starter.join();
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  const auto response = client.Call(R"({"op":"ping"})");
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("\"pong\":true"), std::string::npos);
  client.Close();
  server.Stop();
}

TEST_F(ServerTest, ConnectWithRetryFailsFastOnNonTransientErrors) {
  Client client;
  // An unbindable path (not ENOENT/ECONNREFUSED) must not burn retries.
  const auto start = std::chrono::steady_clock::now();
  const Status bad = client.ConnectWithRetry(
      std::string(200, 'x'), /*attempts=*/50, /*initial_backoff_ms=*/100);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(bad.ok());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST_F(ServerTest, StartRefusesToClobberNonSocketFile) {
  ServerOptions options;
  options.socket_path = SocketPath("sjsel_not_a_socket");
  std::FILE* f = std::fopen(options.socket_path.c_str(), "w");
  ASSERT_TRUE(f != nullptr);
  std::fclose(f);
  Server server(options);
  EXPECT_FALSE(server.Start().ok());
  std::remove(options.socket_path.c_str());
}

}  // namespace
}  // namespace server
}  // namespace sjsel
