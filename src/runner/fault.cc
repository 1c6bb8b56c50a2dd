#include "runner/fault.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/rng.hh"
#include "common/text.hh"
#include "runner/journal.hh"

namespace anvil::runner {
namespace {

FaultKind
parse_kind(const std::string &text)
{
    if (text == "throw")
        return FaultKind::kThrow;
    if (text == "flaky")
        return FaultKind::kFlaky;
    if (text == "hang")
        return FaultKind::kHang;
    if (text == "corrupt")
        return FaultKind::kCorrupt;
    if (text == "abort")
        return FaultKind::kAbort;
    if (text == "sigkill-self")
        return FaultKind::kSigkillSelf;
    if (text == "stall")
        return FaultKind::kStall;
    throw Error("unknown fault kind (expected throw, flaky, hang, "
                "corrupt, abort, sigkill-self, or stall)")
        .with("kind", text);
}

const char *
kind_name(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kThrow: return "throw";
      case FaultKind::kFlaky: return "flaky";
      case FaultKind::kHang: return "hang";
      case FaultKind::kCorrupt: return "corrupt";
      case FaultKind::kAbort: return "abort";
      case FaultKind::kSigkillSelf: return "sigkill-self";
      case FaultKind::kStall: return "stall";
    }
    return "unknown";
}

/**
 * Durably creates the once-marker before the process dies: O_EXCL so
 * the creator knows it fired first, fsync of file and directory so a
 * respawn after power loss still sees it.
 * @return true when this call created the marker (the fault may fire),
 *         false when it already existed (the fault is spent).
 */
bool
claim_marker(const std::string &path)
{
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0) {
        if (errno == EEXIST)
            return false;
        // An uncreatable marker must not hide the fault (tests would
        // silently pass); fire anyway and let the repeat be diagnosed.
        return true;
    }
    ::fsync(fd);
    ::close(fd);
    fsync_parent_dir(path);
    return true;
}

}  // namespace

bool
is_process_fault(FaultKind kind)
{
    return kind == FaultKind::kAbort || kind == FaultKind::kSigkillSelf ||
           kind == FaultKind::kStall;
}

FaultSpec
parse_fault(const std::string &text)
{
    const auto at = text.find('@');
    const auto colon = text.rfind(':');
    if (at == std::string::npos || colon == std::string::npos ||
        colon < at || colon + 1 >= text.size()) {
        throw Error("malformed fault spec (expected kind@scenario:trial)")
            .with("spec", text);
    }
    FaultSpec fault;
    fault.kind = parse_kind(text.substr(0, at));
    fault.scenario = text.substr(at + 1, colon - at - 1);
    const std::string trial = text.substr(colon + 1);
    const std::optional<std::uint64_t> index = parse_unsigned(trial);
    if (!index) {
        throw Error("malformed fault trial index")
            .with("spec", text)
            .with("trial", trial);
    }
    fault.trial = *index;
    return fault;
}

std::string
to_string(const FaultSpec &fault)
{
    return std::string(kind_name(fault.kind)) + "@" + fault.scenario +
           ":" + std::to_string(fault.trial);
}

std::string
fault_marker_path(const std::string &base, const FaultSpec &fault)
{
    std::string suffix = std::string(kind_name(fault.kind)) + "-" +
                         fault.scenario + "-" +
                         std::to_string(fault.trial);
    // Scenario names carry spaces and parentheses; keep the marker a
    // boring portable filename.
    for (char &c : suffix) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' || c == '_';
        if (!keep)
            c = '_';
    }
    return base + ".fault-fired-" + suffix;
}

const FaultSpec *
FaultPlan::match(const TrialSpec &spec) const
{
    for (const FaultSpec &fault : faults_) {
        if (fault.trial == spec.trial && fault.scenario == spec.scenario)
            return &fault;
    }
    return nullptr;
}

void
FaultPlan::inject_before(const FaultSpec &fault, const TrialContext &ctx,
                         unsigned attempt) const
{
    if (is_process_fault(fault.kind)) {
        // Once-semantics: a respawned shard that finds the marker must
        // run the trial cleanly, or no recovery path could complete.
        if (!marker_base_.empty() &&
            !claim_marker(fault_marker_path(marker_base_, fault)))
            return;
        switch (fault.kind) {
          case FaultKind::kAbort:
              std::abort();
          case FaultKind::kSigkillSelf:
              ::kill(::getpid(), SIGKILL);
              // SIGKILL is not synchronous with the kill() return; don't
              // fall through into the trial body in the meantime.
              for (;;)
                  ::pause();
          case FaultKind::kStall:
              // Freezes every thread — including the journal heartbeat —
              // so a supervisor's lease expires. A SIGCONT (e.g. a test
              // poking at the stopped child) lets the trial continue
              // normally; the marker keeps the stall from recurring.
              ::raise(SIGSTOP);
              return;
          default:
              break;
        }
    }
    switch (fault.kind) {
      case FaultKind::kThrow:
          throw Error("injected fault").with("kind", "throw");
      case FaultKind::kFlaky:
          if (attempt == 1)
              throw Error("injected fault").with("kind", "flaky");
          break;
      case FaultKind::kHang:
          if (!ctx.watchdog().armed()) {
              throw Error("injected hang would never terminate; set "
                          "--trial-timeout to bound it")
                  .with("kind", "hang");
          }
          // A runaway trial: consume simulated events until the watchdog
          // aborts the attempt with TimeoutError.
          for (;;)
              ctx.watchdog().tick();
      default:
          break;
    }
}

void
FaultPlan::inject_after(const FaultSpec &fault, const TrialSpec &spec,
                        TrialResult &result)
{
    if (fault.kind != FaultKind::kCorrupt)
        return;
    // Silent corruption, seeded from the trial's named sub-stream so the
    // perturbation itself is replayable.
    std::uint64_t x = sub_seed(spec.seed, "fault");
    for (auto &[name, v] : result.counters()) {
        x = splitmix64(x);
        v += 1 + x % 1000;
    }
    for (auto &[name, v] : result.values()) {
        x = splitmix64(x);
        v += 1.0 + static_cast<double>(x % 1000);
    }
}

}  // namespace anvil::runner
