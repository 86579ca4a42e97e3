// In-process tests of the `sjsel` command-line tool.

#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "datagen/generators.h"
#include "geom/dataset.h"
#include "join/nested_loop.h"
#include "server/server.h"
#include "stream/ingest.h"
#include "util/json.h"
#include "util/table.h"

namespace sjsel {
namespace cli {
namespace {

// Runs the CLI with output captured into strings.
struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult RunTool(const std::vector<std::string>& args) {
  CliResult result;
  const std::string out_path = ::testing::TempDir() + "/cli_out.txt";
  const std::string err_path = ::testing::TempDir() + "/cli_err.txt";
  std::FILE* out = std::fopen(out_path.c_str(), "w+");
  std::FILE* err = std::fopen(err_path.c_str(), "w+");
  result.code = RunCli(args, out, err);
  auto slurp = [](std::FILE* f) {
    std::string s;
    std::rewind(f);
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) s.append(buf, n);
    std::fclose(f);
    return s;
  };
  result.out = slurp(out);
  result.err = slurp(err);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return result;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliTest, NoArgsPrintsUsage) {
  const CliResult r = RunTool({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandPrintsUsage) {
  const CliResult r = RunTool({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, GenStatsRoundTrip) {
  const std::string ds = TempPath("cli_uniform.ds");
  CliResult r = RunTool({"gen", "uniform:500", ds, "--seed=7"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("500 rectangles"), std::string::npos);

  r = RunTool({"stats", ds});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("rectangles  : 500"), std::string::npos);
  EXPECT_NE(r.out.find("coverage"), std::string::npos);
  std::remove(ds.c_str());
}

TEST(CliTest, GenPaperDataset) {
  const std::string ds = TempPath("cli_scrc.ds");
  const CliResult r = RunTool({"gen", "SCRC", ds, "--scale=0.01"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("1000 rectangles"), std::string::npos);
  std::remove(ds.c_str());
}

TEST(CliTest, GenRejectsBadSpec) {
  const CliResult r = RunTool({"gen", "nonsense", TempPath("x.ds")});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown dataset spec"), std::string::npos);

  // The count must be the whole suffix and at least 1: "abc" is not 0 and
  // "12x" is not 12.
  for (const std::string spec :
       {"uniform:abc", "uniform:12x", "uniform:0", "uniform:", "uniform:-3",
        "clustered:abc", "clustered:0"}) {
    const CliResult bad = RunTool({"gen", spec, TempPath("x.ds")});
    EXPECT_EQ(bad.code, 2) << spec;
    EXPECT_NE(bad.err.find("bad dataset spec: " + spec), std::string::npos)
        << bad.err;
    EXPECT_EQ(bad.out, "") << spec;
  }
}

TEST(CliTest, FullHistogramPipeline) {
  const std::string ds_a = TempPath("cli_a.ds");
  const std::string ds_b = TempPath("cli_b.ds");
  const std::string gh_a = TempPath("cli_a.gh");
  const std::string gh_b = TempPath("cli_b.gh");

  ASSERT_EQ(RunTool({"gen", "uniform:2000", ds_a, "--seed=1"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:2000", ds_b, "--seed=2"}).code, 0);

  // Use a shared extent so the two histogram files are combinable.
  CliResult r = RunTool({"hist-build", ds_a, gh_a, "--level=6",
                     "--extent=0,0,1,1"});
  EXPECT_EQ(r.code, 0) << r.err;
  r = RunTool({"hist-build", ds_b, gh_b, "--level=6", "--extent=0,0,1,1"});
  EXPECT_EQ(r.code, 0) << r.err;

  r = RunTool({"hist-info", gh_a});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scheme   : GH (revised)"), std::string::npos);
  EXPECT_NE(r.out.find("level    : 6"), std::string::npos);

  r = RunTool({"estimate", gh_a, gh_b});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("estimated pairs"), std::string::npos);
  EXPECT_NE(r.out.find("estimated selectivity"), std::string::npos);

  r = RunTool({"range", gh_a, "0.2,0.2,0.8,0.8"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("estimated matches"), std::string::npos);

  for (const std::string& p : {ds_a, ds_b, gh_a, gh_b}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, PhPipelineAndMixedSchemesRejected) {
  const std::string ds = TempPath("cli_ph.ds");
  const std::string ph = TempPath("cli_ph.hist");
  const std::string gh = TempPath("cli_gh.hist");
  ASSERT_EQ(RunTool({"gen", "uniform:1000", ds}).code, 0);
  ASSERT_EQ(RunTool({"hist-build", ds, ph, "--scheme=ph", "--level=4",
                 "--extent=0,0,1,1"})
                .code,
            0);
  ASSERT_EQ(
      RunTool({"hist-build", ds, gh, "--level=4", "--extent=0,0,1,1"}).code, 0);

  CliResult r = RunTool({"hist-info", ph});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("scheme   : PH (split)"), std::string::npos);
  EXPECT_NE(r.out.find("avg span"), std::string::npos);

  r = RunTool({"estimate", ph, ph});
  EXPECT_EQ(r.code, 0) << r.err;

  r = RunTool({"estimate", ph, gh});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("different schemes"), std::string::npos);

  r = RunTool({"range", ph, "0,0,1,1"});
  EXPECT_EQ(r.code, 2);  // range needs GH

  for (const std::string& p : {ds, ph, gh}) std::remove(p.c_str());
}

TEST(CliTest, MinSkewPipeline) {
  const std::string ds = TempPath("cli_ms.ds");
  const std::string ms = TempPath("cli_ms.hist");
  ASSERT_EQ(RunTool({"gen", "clustered:1500", ds}).code, 0);
  CliResult r = RunTool({"hist-build", ds, ms, "--scheme=minskew",
                         "--buckets=64", "--extent=0,0,1,1"});
  EXPECT_EQ(r.code, 0) << r.err;

  r = RunTool({"hist-info", ms});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scheme   : MinSkew"), std::string::npos);
  EXPECT_NE(r.out.find("buckets"), std::string::npos);

  r = RunTool({"estimate", ms, ms});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("estimated pairs"), std::string::npos);
  std::remove(ds.c_str());
  std::remove(ms.c_str());
}

// 3,000 clean rects plus five NaN rects and three inverted ones, and a
// clean partner: the defective files of JoinAlgorithmsAgree and
// VerifyJoinsTheRectsTheEstimateRead.
struct DefectiveFiles {
  DefectiveFiles() {
    gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.01, 0.01, 0.5};
    const Dataset clean =
        gen::UniformRects("clean", 3000, Rect(0, 0, 1, 1), size, 5);
    const Dataset other =
        gen::UniformRects("other", 3000, Rect(0, 0, 1, 1), size, 6);
    Dataset dirty("dirty");
    for (const Rect& r : clean.rects()) dirty.Add(r);
    for (int i = 0; i < 5; ++i) {
      dirty.Add(Rect(std::numeric_limits<double>::quiet_NaN(), 0.1 * i, 0.5,
                     0.6));
    }
    for (int i = 0; i < 3; ++i) dirty.Add(Rect(0.6 + 0.1 * i, 0.2, 0.3, 0.5));
    EXPECT_TRUE(dirty.Save(dirty_path).ok());
    EXPECT_TRUE(other.Save(other_path).ok());
    // The quarantine drops exactly the defective rects, so the validated
    // rects are `clean`.
    validated_pairs = NestedLoopJoinCount(clean, other);
  }
  ~DefectiveFiles() {
    std::remove(dirty_path.c_str());
    std::remove(other_path.c_str());
  }

  std::string dirty_path = TempPath("cli_dirty.ds");
  std::string other_path = TempPath("cli_other.ds");
  uint64_t validated_pairs = 0;
};

TEST(CliTest, JoinAlgorithmsAgree) {
  const std::string ds_a = TempPath("cli_ja.ds");
  const std::string ds_b = TempPath("cli_jb.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:800", ds_a, "--seed=3"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:800", ds_b, "--seed=4"}).code, 0);
  const DefectiveFiles defective;

  // Clean files, then a file with NaN and inverted rects.
  for (const auto& [in_a, in_b] :
       {std::pair{ds_a, ds_b},
        std::pair{defective.dirty_path, defective.other_path}}) {
    std::string first;
    for (const std::string algo : {"sweep", "pbsm", "rtree", "nested"}) {
      const CliResult r = RunTool({"join", in_a, in_b, "--algo=" + algo});
      EXPECT_EQ(r.code, 0) << algo << ": " << r.err;
      const size_t pos = r.out.find("pairs      : ");
      ASSERT_NE(pos, std::string::npos);
      const std::string count =
          r.out.substr(pos, r.out.find('\n', pos) - pos);
      if (first.empty()) {
        first = count;
      } else {
        EXPECT_EQ(count, first) << in_a << " " << algo;
      }
    }
  }
  EXPECT_EQ(RunTool({"join", ds_a, ds_b, "--algo=bogus"}).code, 2);
  // `quadtree` is not an algo: it exits 2 like any unknown name.
  EXPECT_EQ(RunTool({"join", ds_a, ds_b, "--algo=quadtree"}).code, 2);
  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, VerifyJoinsTheRectsTheEstimateRead) {
  const DefectiveFiles files;
  const CliResult r =
      RunTool({"estimate", files.dirty_path, files.other_path, "--verify"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("actual pairs         : " +
                       std::to_string(files.validated_pairs) + "\n"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("validation (a)       : checked=3008"),
            std::string::npos)
      << r.out;
}

TEST(CliTest, SampleCommand) {
  const std::string ds_a = TempPath("cli_sa.ds");
  const std::string ds_b = TempPath("cli_sb.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:2000", ds_a, "--seed=5"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "uniform:2000", ds_b, "--seed=6"}).code, 0);
  for (const std::string method : {"rs", "rswr", "ss"}) {
    const CliResult r = RunTool({"sample", ds_a, ds_b, "--method=" + method,
                             "--fa=0.2", "--fb=0.2"});
    EXPECT_EQ(r.code, 0) << method << ": " << r.err;
    EXPECT_NE(r.out.find("samples              : 400 x 400"),
              std::string::npos)
        << method;
    EXPECT_NE(r.out.find("estimated pairs"), std::string::npos);
  }
  EXPECT_EQ(RunTool({"sample", ds_a, ds_b, "--method=bogus"}).code, 2);
  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, GeoPipeline) {
  const std::string streams = TempPath("cli_streams.geo");
  const std::string blocks = TempPath("cli_blocks.geo");
  CliResult r = RunTool({"gen-geo", "streams", streams, "--n=400"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("400 streams geometries"), std::string::npos);
  r = RunTool({"gen-geo", "blocks", blocks, "--n=400"});
  EXPECT_EQ(r.code, 0) << r.err;

  r = RunTool({"refine-join", streams, blocks});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("candidates (filter)"), std::string::npos);
  EXPECT_NE(r.out.find("false-hit ratio"), std::string::npos);

  EXPECT_EQ(RunTool({"gen-geo", "nonsense", streams}).code, 2);
  EXPECT_EQ(RunTool({"refine-join", "/nope.geo", blocks}).code, 1);
  std::remove(streams.c_str());
  std::remove(blocks.c_str());
}

TEST(CliTest, KnnCommand) {
  const std::string ds = TempPath("cli_knn.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:500", ds, "--seed=9"}).code, 0);
  CliResult r = RunTool({"knn", ds, "0.5,0.5", "--k=3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("3 nearest of 500"), std::string::npos);
  EXPECT_NE(r.out.find("dist"), std::string::npos);
  EXPECT_EQ(RunTool({"knn", ds, "zzz"}).code, 2);
  for (const std::string k : {"--k=0", "--k=-3"}) {
    r = RunTool({"knn", ds, "0.5,0.5", k});
    EXPECT_EQ(r.code, 2) << k;
    EXPECT_NE(r.err.find("--k must be >= 1"), std::string::npos) << r.err;
  }
  std::remove(ds.c_str());
}

TEST(CliTest, StatsOfNanFirstRectMatchesServerStats) {
  // A NaN first rect must not reach the statistics: they come from the
  // validated rects and their extent, as the server's `stats` op's do.
  Dataset ds("first_bad");
  ds.Add(Rect(std::numeric_limits<double>::quiet_NaN(), 0, 0.5, 0.5));
  ds.Add(Rect(0.1, 0.2, 0.4, 0.7));
  ds.Add(Rect(0.3, 0.0, 0.6, 0.5));
  const std::string path = TempPath("cli_nan_first.ds");
  ASSERT_TRUE(ds.Save(path).ok());

  const CliResult r = RunTool({"stats", path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("nan"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("rectangles  : 2\n"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("extent      : [0.1,0.6]x[0,0.7]"), std::string::npos)
      << r.out;

  server::Server server(server::ServerOptions{});
  const auto response = JsonValue::Parse(
      server.HandleLine(R"({"op":"stats","path":")" + path + R"("})"));
  std::remove(path.c_str());
  ASSERT_TRUE(response.ok());
  const JsonValue* result = response->Find("result");
  ASSERT_TRUE(result != nullptr);
  EXPECT_EQ(result->Find("n")->number_value(), 2.0);
  const auto expect_line = [&r](const std::string& line) {
    EXPECT_NE(r.out.find(line + "\n"), std::string::npos)
        << line << "\n" << r.out;
  };
  expect_line("coverage    : " +
              FormatPercent(result->Find("coverage")->number_value()));
  expect_line("avg width   : " +
              FormatDouble(result->Find("avg_width")->number_value(), 6));
  expect_line("avg height  : " +
              FormatDouble(result->Find("avg_height")->number_value(), 6));
}

TEST(CliTest, MissingFilesAreReported) {
  EXPECT_EQ(RunTool({"stats", "/nonexistent.ds"}).code, 1);
  EXPECT_EQ(RunTool({"hist-info", "/nonexistent.hist"}).code, 1);
  EXPECT_EQ(RunTool({"join", "/nope1.ds", "/nope2.ds"}).code, 1);
}

TEST(CliTest, BadExtentFlagRejected) {
  const std::string ds = TempPath("cli_ext.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:100", ds}).code, 0);
  const CliResult r =
      RunTool({"hist-build", ds, TempPath("x.gh"), "--extent=zzz"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --extent"), std::string::npos);
  std::remove(ds.c_str());
}

TEST(CliTest, GarbageNumericFlagsRejectedNamingTheFlag) {
  const std::string ds = TempPath("cli_strict.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:100", ds}).code, 0);

  // Each case: the exit code is the usage-error 2 and stderr names the
  // offending flag instead of silently treating the value as 0.
  CliResult r = RunTool({"gen", "uniform:100", ds, "--seed=abc"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --seed"), std::string::npos);
  EXPECT_NE(r.err.find("abc"), std::string::npos);

  r = RunTool({"hist-build", ds, TempPath("x.gh"), "--level=7junk"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --level"), std::string::npos);

  r = RunTool({"sample", ds, ds, "--fa=0.5x"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --fa"), std::string::npos);

  r = RunTool({"join", ds, ds, "--threads="});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --threads"), std::string::npos);

  r = RunTool({"knn", ds, "0.5,0.5", "--k=99999999999999999999"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --k"), std::string::npos);
  std::remove(ds.c_str());
}

TEST(CliTest, GuardedEstimateOnDatasets) {
  const std::string ds_a = TempPath("cli_ge_a.ds");
  const std::string ds_b = TempPath("cli_ge_b.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:1500", ds_a, "--seed=11"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:1500", ds_b, "--seed=12"}).code, 0);

  // Clean inputs: the primary GH rung answers, no degradation.
  CliResult r = RunTool({"estimate", ds_a, ds_b});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("estimated pairs"), std::string::npos);
  EXPECT_NE(r.out.find("rung                 : gh"), std::string::npos);
  EXPECT_NE(r.out.find("degradation_reason   : none"), std::string::npos);

  // Forced GH failure: still exit 0, the PH rung answers, and the
  // degradation trail names the skipped rung.
  r = RunTool({"estimate", ds_a, ds_b, "--inject-faults=estimator.gh=always"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("rung                 : ph"), std::string::npos);
  EXPECT_NE(r.out.find("degradation_reason   : gh:injected"),
            std::string::npos);

  // Whole upper chain out: the parametric anchor still answers.
  r = RunTool({"estimate", ds_a, ds_b,
               "--inject-faults=estimator.gh=always,estimator.ph=always,"
               "estimator.sampling=always"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("rung                 : parametric"),
            std::string::npos);

  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, ExplainCommandEndToEnd) {
  const std::string ds_a = TempPath("cli_ex_a.ds");
  const std::string ds_b = TempPath("cli_ex_b.ds");
  const std::string json = TempPath("cli_ex.json");
  const std::string csv = TempPath("cli_ex.csv");
  ASSERT_EQ(RunTool({"gen", "uniform:1200", ds_a, "--seed=31"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:1200", ds_b, "--seed=32"}).code, 0);

  const std::vector<std::string> cmd = {"explain", ds_a,      ds_b,
                                        "--exact", "--top=5", "--level=4",
                                        "--json=" + json, "--csv=" + csv};
  const CliResult r = RunTool(cmd);
  EXPECT_EQ(r.code, 0) << r.err;
  for (const char* needle :
       {"explain              : gh level 4", "estimated pairs",
        "chain:", "contribution skew:", "top contributing cells:",
        "actual pairs", "top erring cells:", "c1*o2"}) {
    EXPECT_NE(r.out.find(needle), std::string::npos) << needle;
  }

  // Deterministic output: a second run and a threaded run are
  // byte-identical (json/csv side files excluded from this run).
  const CliResult again =
      RunTool({"explain", ds_a, ds_b, "--exact", "--top=5", "--level=4"});
  const CliResult threaded = RunTool({"explain", ds_a, ds_b, "--exact",
                                      "--top=5", "--level=4", "--threads=4"});
  const CliResult base =
      RunTool({"explain", ds_a, ds_b, "--exact", "--top=5", "--level=4"});
  EXPECT_EQ(base.out, again.out);
  EXPECT_EQ(base.out, threaded.out);

  // Side files were written and are non-empty.
  for (const std::string& path : {json, csv}) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr) << path;
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 0) << path;
    std::fclose(f);
    std::remove(path.c_str());
  }

  // Unknown scheme is a usage error.
  EXPECT_EQ(RunTool({"explain", ds_a, ds_b, "--scheme=bogus"}).code, 2);

  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, EstimateExplainPrintsChainTrail) {
  const std::string ds_a = TempPath("cli_ee_a.ds");
  const std::string ds_b = TempPath("cli_ee_b.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:600", ds_a, "--seed=41"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "uniform:600", ds_b, "--seed=42"}).code, 0);
  const CliResult r =
      RunTool({"estimate", ds_a, ds_b, "--explain",
               "--inject-faults=estimator.gh=always"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("chain:"), std::string::npos);
  EXPECT_NE(r.out.find("gh         failed"), std::string::npos);
  EXPECT_NE(r.out.find("cause=injected"), std::string::npos);
  EXPECT_NE(r.out.find("ph         answered"), std::string::npos);
  // Without --explain the chain block stays out of the output.
  const CliResult plain = RunTool({"estimate", ds_a, ds_b});
  EXPECT_EQ(plain.out.find("chain:"), std::string::npos);
  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, BadInjectFaultsSpecRejected) {
  const CliResult r = RunTool({"stats", "/nonexistent.ds",
                               "--inject-faults=bogus"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad fault clause"), std::string::npos);
}

TEST(CliTest, InjectedIoFaultIsDiagnosedNotCrashed) {
  const std::string ds = TempPath("cli_iofault.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:200", ds}).code, 0);
  // io.read makes every file load fail: the command must report the
  // injected IoError and exit 1, and a following run (injection scoped to
  // one invocation) must succeed again.
  CliResult r = RunTool({"stats", ds, "--inject-faults=io.read=always"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("io.read"), std::string::npos);
  EXPECT_EQ(RunTool({"stats", ds}).code, 0);
  std::remove(ds.c_str());
}

TEST(CliTest, HistBuildValidatePolicyFlag) {
  const std::string ds = TempPath("cli_val.ds");
  const std::string gh = TempPath("cli_val.gh");
  ASSERT_EQ(RunTool({"gen", "uniform:300", ds}).code, 0);
  // Generated data is clean, so every policy builds successfully…
  for (const std::string policy : {"reject", "clamp", "quarantine"}) {
    const CliResult r = RunTool({"hist-build", ds, gh, "--level=5",
                                 "--validate=" + policy});
    EXPECT_EQ(r.code, 0) << policy << ": " << r.err;
  }
  // …and an unknown policy is a usage error.
  const CliResult r = RunTool({"hist-build", ds, gh, "--validate=maybe"});
  EXPECT_EQ(r.code, 2);
  std::remove(ds.c_str());
  std::remove(gh.c_str());
}

TEST(CliTest, HistBuildLeavesNonFiniteRectsOutOfTheGrid) {
  // A NaN first rect must neither reach the default extent nor, under
  // --validate, push the clean rects out of it.
  const std::string ds = TempPath("cli_nan_first.ds");
  const std::string gh = TempPath("cli_nan_first.gh");
  ASSERT_TRUE(Dataset("nan_first",
                      {Rect(std::numeric_limits<double>::quiet_NaN(), 0.1,
                            0.2, 0.2),
                       Rect(0.1, 0.1, 0.3, 0.3), Rect(0.2, 0.2, 0.5, 0.5)})
                  .Save(ds)
                  .ok());
  CliResult r = RunTool({"hist-build", ds, gh});
  EXPECT_NE(r.out.find("for 2 rects"), std::string::npos) << r.out;
  r = RunTool({"hist-info", gh});
  EXPECT_NE(r.out.find("extent   : [0.1,0.5]x[0.1,0.5]"), std::string::npos)
      << r.out;
  r = RunTool({"hist-build", ds, gh, "--validate=quarantine"});
  EXPECT_NE(r.out.find("non_finite=1 inverted=0 out_of_extent=0 clamped=0 "
                       "quarantined=1"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("for 2 rects"), std::string::npos) << r.out;
  std::remove(ds.c_str());
  std::remove(gh.c_str());
}

TEST(CliTest, PlanCommandEndToEnd) {
  const std::string ds_a = TempPath("cli_plan_a.ds");
  const std::string ds_b = TempPath("cli_plan_b.ds");
  const std::string ds_c = TempPath("cli_plan_c.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:1200", ds_a, "--seed=41"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:900", ds_b, "--seed=42"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "uniform:600", ds_c, "--seed=43"}).code, 0);

  CliResult r = RunTool({"plan", ds_a, ds_b, ds_c});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("datasets             : 3"), std::string::npos);
  EXPECT_NE(r.out.find("pair estimates:"), std::string::npos);
  EXPECT_NE(r.out.find("algorithm            : dp"), std::string::npos);
  const std::string text_plan = r.out;

  // The planner is deterministic across thread counts — the whole
  // rendering, not just the chosen tree.
  r = RunTool({"plan", ds_a, ds_b, ds_c, "--threads=4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out, text_plan);

  // --json emits one machine-readable document.
  r = RunTool({"plan", ds_a, ds_b, ds_c, "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"tree\":"), std::string::npos);
  EXPECT_NE(r.out.find("\"degraded\":false"), std::string::npos);

  // Degraded pair estimates surface in the plan output.
  r = RunTool({"plan", ds_a, ds_b, ds_c,
               "--inject-faults=estimator.gh=always"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("gh:injected"), std::string::npos);

  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
  std::remove(ds_c.c_str());
}

TEST(CliTest, PlanRejectsTooFewInputs) {
  const std::string ds = TempPath("cli_plan_one.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:100", ds}).code, 0);
  const CliResult r = RunTool({"plan", ds});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("at least two"), std::string::npos);
  std::remove(ds.c_str());
}

TEST(CliTest, ServeRejectsBadFlags) {
  CliResult r = RunTool({"serve"});
  EXPECT_EQ(r.code, 2);
  r = RunTool({"serve", TempPath("cli_srv.sock"), "--workers=0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--workers"), std::string::npos);
}

TEST(CliTest, ClientReportsConnectFailure) {
  const CliResult r =
      RunTool({"client", TempPath("cli_no_server.sock"), "{\"op\":\"ping\"}"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("connect"), std::string::npos);
}

TEST(CliTest, KernelBackendFlagAcceptsOnlyScalarAndAvx2) {
  const std::string ds = TempPath("cli_kernels.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:100", ds}).code, 0);
  CliResult r = RunTool({"stats", ds, "--kernel-backend=scalar"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("kernels     : scalar (override; detected "),
            std::string::npos)
      << r.out;
  for (const std::string name : {"avx512", "neon", ""}) {
    r = RunTool({"stats", ds, "--kernel-backend=" + name});
    EXPECT_EQ(r.code, 2) << name;
    EXPECT_NE(r.err.find("bad --kernel-backend: '" + name +
                         "' (want scalar|avx2)"),
              std::string::npos)
        << r.err;
    EXPECT_EQ(r.out, "") << name;
  }
  std::remove(ds.c_str());
}

// A stream directory at `leaf` over the unit square holding `adds`, sealed
// so that its snapshot sees them.
std::string MakeStream(const std::string& leaf,
                       const std::vector<Rect>& adds) {
  const std::string dir = TempPath(leaf);
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/MANIFEST").c_str());
  stream::StreamOptions options;
  options.seal_every = 1;
  options.fsync_always = false;
  EXPECT_TRUE(stream::StreamIngest::Init(dir, options).ok());
  auto ingest = stream::StreamIngest::Open(dir);
  EXPECT_TRUE(ingest.ok());
  std::vector<stream::StreamOp> batch;
  for (const Rect& r : adds) batch.push_back({stream::OpKind::kAdd, r});
  EXPECT_TRUE((*ingest)->Apply(batch).ok());
  return dir;
}

void RemoveStream(const std::string& dir) {
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/MANIFEST").c_str());
}

TEST(CliTest, IngestEstimateIsClampedLikeEstimate) {
  // One rect covering the whole frame on both sides: the raw GH estimate
  // is 4, but one rect joins one rect at most once.
  Dataset one("one");
  one.Add(Rect(0, 0, 1, 1));
  const std::string path = TempPath("cli_one_rect.ds");
  ASSERT_TRUE(one.Save(path).ok());
  const std::string dir = MakeStream("cli_stream_one", {Rect(0, 0, 1, 1)});

  CliResult r = RunTool({"ingest", dir, "--estimate=" + path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("snapshot_seq=1 estimated_pairs=1 clamped=yes\n"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("validation (b): checked=1 non_finite=0"),
            std::string::npos)
      << r.out;

  r = RunTool({"estimate", path, path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("estimated pairs      : 1.0\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("clamped              : yes"), std::string::npos)
      << r.out;
  // So is `estimate` on two histogram files, whose raw GH and PH answer
  // is 4 as well.
  for (const std::string scheme : {"gh", "ph"}) {
    const std::string hist = TempPath("cli_one_rect." + scheme);
    ASSERT_EQ(RunTool({"hist-build", path, hist, "--scheme=" + scheme}).code,
              0);
    EXPECT_EQ(RunTool({"estimate", hist, hist}).out,
              "estimated pairs      : 1.0\nestimated selectivity: 1.000000\n"
              "clamped              : yes\n");
    std::remove(hist.c_str());
  }
  RemoveStream(dir);
  std::remove(path.c_str());
}

TEST(CliTest, IngestEstimateQuarantinesNanRectsOfB) {
  Dataset clean("clean");
  clean.Add(Rect(0.1, 0.2, 0.4, 0.7));
  clean.Add(Rect(0.3, 0.0, 0.6, 0.5));
  Dataset first_bad("first_bad");
  first_bad.Add(Rect(std::numeric_limits<double>::quiet_NaN(), 0, 0.5, 0.5));
  for (const Rect& r : clean.rects()) first_bad.Add(r);
  const std::string clean_path = TempPath("cli_clean2.ds");
  const std::string bad_path = TempPath("cli_nan_first_b.ds");
  ASSERT_TRUE(clean.Save(clean_path).ok());
  ASSERT_TRUE(first_bad.Save(bad_path).ok());
  const std::string dir = MakeStream(
      "cli_stream_nan", {Rect(0.05, 0.05, 0.35, 0.35), Rect(0.2, 0.3, 0.5, 0.9),
                         Rect(0.5, 0.1, 0.8, 0.4)});

  const CliResult bad = RunTool({"ingest", dir, "--estimate=" + bad_path});
  const CliResult good = RunTool({"ingest", dir, "--estimate=" + clean_path});
  ASSERT_EQ(bad.code, 0) << bad.err;
  ASSERT_EQ(good.code, 0) << good.err;
  const auto first_line = [](const std::string& out) {
    return out.substr(0, out.find('\n'));
  };
  EXPECT_EQ(first_line(bad.out), first_line(good.out));
  EXPECT_NE(bad.out.find("clamped=no"), std::string::npos) << bad.out;
  EXPECT_NE(bad.out.find("validation (b): checked=3 non_finite=1"),
            std::string::npos)
      << bad.out;
  EXPECT_NE(bad.out.find("quarantined=1"), std::string::npos) << bad.out;
  RemoveStream(dir);
  std::remove(clean_path.c_str());
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace cli
}  // namespace sjsel
