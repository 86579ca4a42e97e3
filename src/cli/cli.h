#ifndef SJSEL_CLI_CLI_H_
#define SJSEL_CLI_CLI_H_

#include <cstdio>
#include <string>
#include <vector>

namespace sjsel {
namespace cli {

/// Entry point of the `sjsel` command-line tool, factored out of main() so
/// tests can drive it in-process. `args` excludes the program name.
/// Returns a process exit code (0 on success).
///
/// Subcommands:
///   gen <spec> <out.ds>        generate a dataset (paper name or
///                              uniform:N / clustered:N)
///   stats <in.ds>              dataset statistics
///   hist-build <in.ds> <out.hist> [--scheme=gh|ph|minskew] [--level=7] [--sparse]
///                              [--extent=x0,y0,x1,y1] [--basic] [--naive]
///   hist-info <in.hist>        histogram file metadata
///   estimate <a.hist> <b.hist> join selectivity estimate from two
///                              histogram files (GH or PH, auto-detected)
///   estimate <a.ds> <b.ds>     guarded estimate from two dataset files:
///                              inputs are validated (--validate=reject|
///                              clamp|quarantine, default quarantine) and
///                              the fallback chain GH -> PH -> sampling ->
///                              parametric answers, reporting the rung and
///                              a machine-readable degradation_reason;
///                              --explain adds the chain's per-rung trail
///   explain <a.ds> <b.ds>      per-cell estimate breakdown (GH/PH term
///                              contributions, contribution skew, chain
///                              trail); --exact adds per-cell error
///                              attribution against the exact join;
///                              --json=<file> / --csv=<file> write the
///                              JSON report / cell-grid heatmap CSV.
///                              Output is byte-identical across runs and
///                              --threads values (opt-in --timing excepted)
///   range <a.hist> <x0,y0,x1,y1>
///                              estimated range-query result count (GH)
///   join <a.ds> <b.ds> [--algo=sweep|pbsm|rtree|nested]
///                              exact filter-step join count
///   sample <a.ds> <b.ds> [--method=rs|rswr|ss] [--fa=0.1] [--fb=0.1]
///                              [--seed=1]
///                              sampling-based selectivity estimate
///   plan <a.ds> <b.ds> [<c.ds> ...]
///                              selectivity-driven multi-way join plan:
///                              guarded pairwise estimates + DP over bushy
///                              join trees; --json emits the machine form
///                              (docs/PLANNER.md)
///   serve <socket>             estimation daemon: NDJSON estimate/explain/
///                              stats/plan over a Unix-domain socket with a
///                              bounded admission queue, per-request
///                              deadlines and per-request metrics/spans;
///                              stops on SIGINT/SIGTERM or a `shutdown`
///                              request (docs/SERVER.md)
///   client <socket> [<json> ...]
///                              send request lines (or stdin NDJSON) to a
///                              running server, one response line each
///
/// hist-build, join and sample accept --threads=N (0 = all hardware
/// threads). Thread count never changes any output: histograms are
/// bit-identical and join counts exact for every N.
///
/// Every command accepts --inject-faults=<site>=<trigger>[,...] to arm
/// deterministic fault injection for the invocation (see
/// src/util/fault_injection.h for sites and trigger syntax). Numeric flags
/// are parsed strictly: trailing junk or overflow rejects the command with
/// exit code 2 naming the flag.
int RunCli(const std::vector<std::string>& args, std::FILE* out,
           std::FILE* err);

}  // namespace cli
}  // namespace sjsel

#endif  // SJSEL_CLI_CLI_H_
