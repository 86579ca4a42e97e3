#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "datagen/workloads.h"
#include "geom/dataset.h"
#include "join/plane_sweep.h"
#include "reference.h"
#include "server/client.h"
#include "util/json.h"

namespace sjsel {
namespace e2e {
namespace fs = std::filesystem;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool Checks::Expect(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++checked_;
  if (!ok) {
    ++failed_;
    if (messages_.size() < 10) messages_.push_back(what);
  }
  return ok;
}

uint64_t Checks::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void Checks::Print(std::FILE* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out, "checks: %" PRIu64 " run, %" PRIu64 " failed\n", checked_,
               failed_);
  for (const std::string& m : messages_) {
    std::fprintf(out, "  FAILED: %s\n", m.c_str());
  }
}

// --- dataset pools -------------------------------------------------------

// Sub-seed stream of the pool files, apart from the workloads' own.
constexpr uint64_t kPoolSeedStream = 0x9001;

Result<std::vector<PoolFile>> MakePool(uint64_t seed, double scale,
                                       int copies) {
  constexpr gen::PaperDataset kLayers[] = {
      gen::PaperDataset::kTS,   gen::PaperDataset::kTCB,
      gen::PaperDataset::kCAS,  gen::PaperDataset::kCAR,
      gen::PaperDataset::kSP,   gen::PaperDataset::kSPG,
      gen::PaperDataset::kSCRC, gen::PaperDataset::kSURA};
  std::string prefix = "s";
  prefix += std::to_string(seed) + "-";
  std::error_code ec;
  fs::create_directories("pool", ec);
  if (ec) return Status::IoError("create pool/: " + ec.message());
  for (const auto& entry : fs::directory_iterator("pool", ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) != 0) {
      fs::remove(entry.path(), ec);
    }
  }
  char scale_text[32];
  std::snprintf(scale_text, sizeof(scale_text), "%g", scale);
  std::vector<PoolFile> files;
  for (const gen::PaperDataset layer : kLayers) {
    for (int copy = 0; copy < copies; ++copy) {
      PoolFile file;
      file.layer = gen::PaperDatasetName(layer);
      file.copy = copy;
      file.path = "pool/" + prefix + "x" + scale_text + "-" + file.layer +
                  "-" + std::to_string(copy) + ".ds";
      if (!fs::exists(file.path)) {
        // Written under a temporary name and renamed, so an interrupted
        // run never leaves a truncated file behind under the cache key.
        const Dataset ds = gen::MakePaperDataset(
            layer, scale,
            SubSeed(seed, kPoolSeedStream, static_cast<uint64_t>(copy)));
        const std::string tmp = file.path + ".tmp";
        SJSEL_RETURN_IF_ERROR(ds.Save(tmp));
        fs::rename(tmp, file.path, ec);
        if (ec) return Status::IoError("rename " + tmp + ": " + ec.message());
      }
      files.push_back(std::move(file));
    }
  }
  return files;
}

ExactCounts::ExactCounts(uint64_t seed)
    : path_("exact-" + std::to_string(seed) + ".tsv") {
  std::ifstream in(path_);
  std::string a, b;
  uint64_t count = 0;
  while (in >> a >> b >> count) cache_[{a, b}] = count;
}

uint64_t ExactCounts::Get(const std::string& a_path, const std::string& b_path,
                         const Dataset& a, const Dataset& b) {
  const auto it = cache_.find({a_path, b_path});
  if (it != cache_.end()) return it->second;
  const uint64_t count = PlaneSweepJoinCount(a, b);
  cache_[{a_path, b_path}] = count;
  std::ofstream(path_, std::ios::app)
      << a_path << '\t' << b_path << '\t' << count << '\n';
  return count;
}

// --- the server under test -----------------------------------------------

Result<std::unique_ptr<ServeProcess>> ServeProcess::Start(
    const std::string& sjsel, const std::string& socket,
    const std::string& log_path) {
  std::vector<std::string> args = {sjsel, "serve", socket, "--workers=4"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // The child makes only async-signal-safe calls before exec. The
    // server is killed if the bench dies first, so it never outlives it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int in = ::open("/dev/null", O_RDONLY);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    if (in < 0 || log < 0 || ::dup2(in, 0) < 0 || ::dup2(log, 1) < 0 ||
        ::dup2(log, 2) < 0) {
      ::_exit(127);
    }
    ::execv(sjsel.c_str(), argv.data());
    ::_exit(127);
  }
  std::unique_ptr<ServeProcess> proc(new ServeProcess(pid, socket));

  // Ready once a ping is answered. Polled every millisecond rather than
  // with backoff, so the wait adds no quantization to setup_s.
  const Clock::time_point start = Clock::now();
  while (true) {
    server::Client client;
    if (client.Connect(socket).ok()) {
      const auto pong = client.Call(R"({"op":"ping"})");
      if (pong.ok() && ResponseOk(*pong, {"pong"})) return proc;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      proc->pid_ = -1;
      return Status::Internal("sjsel serve exited during startup; see " +
                              log_path);
    }
    if (SecondsSince(start) > 30.0) {
      return Status::Internal("sjsel serve not ready after 30 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

ServeProcess::~ServeProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

Result<std::string> ServeProcess::Call(const std::string& line) const {
  server::Client client;
  SJSEL_RETURN_IF_ERROR(client.Connect(socket_));
  return client.Call(line);
}

Result<std::string> ServeProcess::ProcField(const char* file,
                                            const char* key) const {
  const std::string path =
      "/proc/" + std::to_string(static_cast<long long>(pid_)) + "/" + file;
  std::ifstream in(path);
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
  }
  return Status::NotFound(std::string(key) + " not in " + path);
}

Result<uint64_t> ServeProcess::PeakRssKb() const {
  std::string value;
  SJSEL_ASSIGN_OR_RETURN(value, ProcField("status", "VmHWM"));
  return std::strtoull(value.c_str(), nullptr, 10);  // "   1234 kB"
}

Status ServeProcess::Pause() {
  if (pid_ <= 0) return Status::FailedPrecondition("server not running");
  if (::kill(pid_, SIGSTOP) != 0) {
    return Status::IoError(std::string("SIGSTOP: ") + std::strerror(errno));
  }
  int status = 0;
  const pid_t got = ::waitpid(pid_, &status, WUNTRACED);
  if (got == pid_ && WIFSTOPPED(status)) return Status::OK();
  if (got == pid_) pid_ = -1;  // it exited, and is reaped
  return Status::Internal("sjsel serve did not stop");
}

Status ServeProcess::Resume() {
  if (pid_ <= 0) return Status::FailedPrecondition("server not running");
  if (::kill(pid_, SIGCONT) != 0) {
    return Status::IoError(std::string("SIGCONT: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status ServeProcess::Shutdown() {
  if (pid_ <= 0) return Status::FailedPrecondition("server not running");
  const auto reply = Call(R"({"op":"shutdown"})");
  if (!reply.ok()) return reply.status();
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 60.0) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return Status::Internal("sjsel serve exited abnormally");
      }
      return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::Internal("sjsel serve did not stop within 60 s");
}

// --- closed-loop load ----------------------------------------------------

namespace {

// One slice of RunSlicedLoop.
GroupStats RunClosedLoop(const std::string& socket, const ClientGroup& group,
                         double seconds) {
  struct Slot {
    server::Client conn;
    GroupStats stats;
    Clock::time_point done;
  };
  std::vector<std::unique_ptr<Slot>> slots;
  for (int c = 0; c < group.clients; ++c) {
    auto slot = std::make_unique<Slot>();
    // Connected before the clock starts: the window measures requests, not
    // connection set-up.
    if (!slot->conn.Connect(socket).ok()) {
      slot->stats.attempted = 1;
      slot->stats.transport_errors = 1;
    }
    slots.push_back(std::move(slot));
  }

  // Released together once every thread exists; `start` is written before
  // the release and read after it.
  std::atomic<bool> go{false};
  Clock::time_point start;
  const auto run = [&](int client) {
    Slot* slot = slots[static_cast<size_t>(client)].get();
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (slot->conn.connected() && Clock::now() < deadline) {
      const std::string line = group.next(client);
      if (line.empty()) {
        slot->stats.exhausted = true;
        break;
      }
      ++slot->stats.attempted;
      const Clock::time_point sent = Clock::now();
      const auto response = slot->conn.Call(line);
      const Clock::time_point answered = Clock::now();
      if (!response.ok()) {
        ++slot->stats.transport_errors;
        slot->conn.Close();
        break;
      }
      slot->stats.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(answered - sent).count());
      slot->stats.done_s.push_back(
          std::chrono::duration<double>(answered - start).count());
      group.check(client, *response);
    }
    slot->done = Clock::now();
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < group.clients; ++c) threads.emplace_back(run, c);
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  GroupStats out;
  for (const auto& slot : slots) {
    out.latency_ms.insert(out.latency_ms.end(),
                          slot->stats.latency_ms.begin(),
                          slot->stats.latency_ms.end());
    out.done_s.insert(out.done_s.end(), slot->stats.done_s.begin(),
                      slot->stats.done_s.end());
    out.attempted += slot->stats.attempted;
    out.transport_errors += slot->stats.transport_errors;
    out.exhausted = out.exhausted || slot->stats.exhausted;
    out.seconds = std::max(
        out.seconds, std::chrono::duration<double>(slot->done - start).count());
  }
  return out;
}

}  // namespace

Result<SlicedLoad> RunSlicedLoop(ServeProcess& server,
                                 const ClientGroup& group, double seconds,
                                 double slice_seconds) {
  SlicedLoad out;
  const auto reference_round = [&]() -> Status {
    SJSEL_RETURN_IF_ERROR(server.Pause());
    out.slowdowns.push_back(MeasureSlowdown());
    return server.Resume();
  };
  SJSEL_RETURN_IF_ERROR(reference_round());
  GroupStats& all = out.stats;
  while (all.seconds < seconds) {
    const GroupStats slice = RunClosedLoop(
        server.socket(), group, std::min(slice_seconds, seconds - all.seconds));
    SJSEL_RETURN_IF_ERROR(reference_round());
    all.latency_ms.insert(all.latency_ms.end(), slice.latency_ms.begin(),
                          slice.latency_ms.end());
    for (double t : slice.done_s) all.done_s.push_back(all.seconds + t);
    all.attempted += slice.attempted;
    all.transport_errors += slice.transport_errors;
    all.exhausted = slice.exhausted;
    all.seconds += slice.seconds;
    if (slice.exhausted || slice.transport_errors > 0) break;
  }
  return out;
}

std::vector<std::string> SendAll(const std::string& socket,
                                 const std::vector<std::string>& lines) {
  std::vector<std::string> responses(lines.size());
  server::Client client;
  if (!client.Connect(socket).ok()) return responses;
  for (size_t i = 0; i < lines.size(); ++i) {
    auto response = client.Call(lines[i]);
    if (!response.ok()) break;
    responses[i] = std::move(response).value();
  }
  return responses;
}

// --- protocol helpers ----------------------------------------------------

namespace {

// `"key":`, the start of an object member in compact JSON.
std::string MemberPrefix(const std::string& key) {
  std::string out = "\"";
  out += key;
  out += "\":";
  return out;
}

}  // namespace

bool ResponseOk(const std::string& response,
                const std::vector<const char*>& fields) {
  if (response.find("\"ok\":true") == std::string::npos) return false;
  for (const char* field : fields) {
    if (response.find(MemberPrefix(field)) == std::string::npos) return false;
  }
  return true;
}

std::optional<double> NumberField(const std::string& response,
                                  const std::string& key) {
  const std::string needle = MemberPrefix(key);
  const size_t at = response.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* begin = response.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

std::string EstimateLine(const std::string& a, const std::string& b) {
  return JsonValue::Object()
      .Set("op", JsonValue::String("estimate"))
      .Set("a", JsonValue::String(a))
      .Set("b", JsonValue::String(b))
      .Dump();
}

std::string StatsLine(const std::string& path) {
  return JsonValue::Object()
      .Set("op", JsonValue::String("stats"))
      .Set("path", JsonValue::String(path))
      .Dump();
}

std::string PlanLine(const std::vector<std::string>& paths) {
  JsonValue array = JsonValue::Array();
  for (const std::string& p : paths) array.Append(JsonValue::String(p));
  return JsonValue::Object()
      .Set("op", JsonValue::String("plan"))
      .Set("paths", std::move(array))
      .Dump();
}

}  // namespace e2e
}  // namespace sjsel
