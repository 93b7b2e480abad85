#include "common.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  auto idx = static_cast<std::size_t>(pos + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Calls fn(pid) for every live child process.
template <typename Fn>
void for_each_child(Fn&& fn) {
  const pid_t self = ::getpid();
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return;
  while (const dirent* e = ::readdir(proc)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream stat(std::string("/proc/") + e->d_name + "/stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // Field 4 (ppid) follows the parenthesised command name, which may
    // itself contain spaces and parentheses.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    char state = 0;
    int ppid = 0;
    if (std::sscanf(line.c_str() + close + 1, " %c %d", &state, &ppid) ==
            2 &&
        ppid == self)
      fn(e->d_name);
  }
  ::closedir(proc);
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_ms() { return clock_s(CLOCK_THREAD_CPUTIME_ID) * 1e3; }

long current_tid() { return static_cast<long>(::gettid()); }

ThreadCpu thread_cpu_snapshot() {
  ThreadCpu out;
  auto add_process = [&out](const std::string& pid) {
    // Every thread's schedstat opens with its run time in nanoseconds.
    const std::string tasks = "/proc/" + pid + "/task";
    DIR* dir = ::opendir(tasks.c_str());
    if (dir == nullptr) return;
    while (const dirent* t = ::readdir(dir)) {
      if (t->d_name[0] < '0' || t->d_name[0] > '9') continue;
      std::ifstream in(tasks + "/" + t->d_name + "/schedstat");
      unsigned long long ns = 0;
      if (in >> ns) out[std::stol(t->d_name)] = static_cast<double>(ns) * 1e-9;
    }
    ::closedir(dir);
  };
  add_process("self");
  for_each_child([&](const char* pid) { add_process(pid); });
  return out;
}

CpuUse cpu_between(const ThreadCpu& before, const ThreadCpu& after,
                   const std::vector<long>& exclude) {
  CpuUse use;
  for (const auto& [tid, s] : after) {
    if (std::find(exclude.begin(), exclude.end(), tid) != exclude.end())
      continue;
    const auto it = before.find(tid);
    const double d = s - (it == before.end() ? 0.0 : it->second);
    use.total_s += d;
    use.busiest_s = std::max(use.busiest_s, d);
  }
  return use;
}

double peak_rss_mb_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double peak_rss_mb_children() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int count_children() {
  int n = 0;
  for_each_child([&](const char*) { ++n; });
  return n;
}

int count_own_shm_segments() {
  const std::string prefix =
      "dchag_ing_" + std::to_string(::getpid()) + "_";
  int n = 0;
  DIR* shm = ::opendir("/dev/shm");
  if (shm == nullptr) return 0;
  while (const dirent* e = ::readdir(shm)) {
    if (std::strncmp(e->d_name, prefix.c_str(), prefix.size()) == 0) ++n;
  }
  ::closedir(shm);
  return n;
}

dchag::runtime::Context pinned_context(
    dchag::runtime::KernelBackend backend) {
  return dchag::runtime::ContextBuilder()
      .kernel_backend(backend)
      .threads(1)
      .comm_mode(dchag::runtime::CommMode::kSync)
      .pipeline_chunks(1)
      .build();
}

}  // namespace perfbench
