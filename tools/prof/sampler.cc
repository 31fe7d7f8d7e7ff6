// Sampling wall-clock profiler, loaded into any program with LD_PRELOAD, for
// hosts without `perf` (gprof's -pg counts misattribute memory-bound code
// such as the KV store's lookups). Build the program with frame pointers,
// then:
//
//   g++ -O2 -fPIC -shared -o libsfsprof.so tools/prof/sampler.cc
//   SFS_PROF_OUT=/tmp/prof LD_PRELOAD=$PWD/libsfsprof.so ./program args...
//   tools/prof/report.py /tmp/prof.<pid> --under 'Simulator::Step'
//
// setitimer(ITIMER_PROF) raises SIGPROF kHz times per second of CPU time the
// process uses, or once per scheduler tick if the kernel's tick is slower
// (250 Hz is common). Each signal records the interrupted program counter
// and the return addresses on its frame-pointer chain, leaf first, into a
// preallocated buffer. At exit the library writes
// <SFS_PROF_OUT>.<pid> (default sfsprof.<pid>): the process's file-backed
// mappings, then one line of hex addresses per sample. report.py symbolizes
// them with `nm -C`.
//
// Limits: only x86-64 Linux; only the main thread's stack is walked (other
// threads record their program counter alone); a function without a frame
// pointer (most of libc) hides its caller, since the chain then starts at
// the caller's caller; samples past the buffer's ~1M-frame capacity are
// counted as dropped.
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr long kHz = 997;
constexpr size_t kMaxDepth = 64;
constexpr size_t kBufferWords = size_t{1} << 23;  // 64 MB, touched as used

uint64_t* g_buf = nullptr;
size_t g_used = 0;
uint64_t g_samples = 0;
uint64_t g_dropped = 0;
uintptr_t g_stack_hi = 0;  // top of the main thread's stack

void OnProf(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
  if (g_used + kMaxDepth + 1 > kBufferWords) {
    ++g_dropped;
    return;
  }
  uint64_t* rec = g_buf + g_used;
  size_t n = 0;
  rec[1 + n++] = static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
  // The handler runs on the interrupted stack, below the interrupted
  // frames, so a frame pointer worth following lies between this local and
  // the stack's top, and each next frame lies above the last.
  const uintptr_t lo = reinterpret_cast<uintptr_t>(&n);
  uintptr_t fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  while (n < kMaxDepth && fp > lo && fp + 16 <= g_stack_hi && fp % 8 == 0) {
    const auto* frame = reinterpret_cast<const uintptr_t*>(fp);
    if (frame[1] == 0) {
      break;
    }
    rec[1 + n++] = frame[1] - 1;  // inside the call, not after it
    if (frame[0] <= fp) {
      break;
    }
    fp = frame[0];
  }
  rec[0] = n;
  g_used += n + 1;
  ++g_samples;
}

__attribute__((constructor)) void Start() {
  void* buf = mmap(nullptr, kBufferWords * sizeof(uint64_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (buf == MAP_FAILED) {
    std::perror("sfsprof: mmap");
    return;
  }
  g_buf = static_cast<uint64_t*>(buf);
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    size_t size = 0;
    pthread_attr_getstack(&attr, &addr, &size);
    g_stack_hi = reinterpret_cast<uintptr_t>(addr) + size;
    pthread_attr_destroy(&attr);
  }
  struct sigaction sa = {};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval timer = {};
  timer.it_interval.tv_usec = 1000000 / kHz;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    std::perror("sfsprof: setitimer");
  }
}

__attribute__((destructor)) void Stop() {
  if (g_buf == nullptr) {
    return;
  }
  itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  const char* base = std::getenv("SFS_PROF_OUT");
  char path[4096];
  std::snprintf(path, sizeof(path), "%s.%d", base != nullptr ? base : "sfsprof",
                static_cast<int>(getpid()));
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror("sfsprof: open output");
    return;
  }
  std::fprintf(out, "sfsprof 1\nhz %ld\nsamples %llu\ndropped %llu\n", kHz,
               static_cast<unsigned long long>(g_samples),
               static_cast<unsigned long long>(g_dropped));
  // File-backed mappings, as /proc/self/maps prints them.
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      for (const char* c = line; *c != '\0'; ++c) {
        if (*c == '/') {
          std::fprintf(out, "map %s", line);
          break;
        }
      }
    }
    std::fclose(maps);
  }
  for (size_t i = 0; i < g_used;) {
    const size_t n = g_buf[i];
    std::fputs("s", out);
    for (size_t j = 1; j <= n; ++j) {
      std::fprintf(out, " %llx", static_cast<unsigned long long>(g_buf[i + j]));
    }
    std::fputc('\n', out);
    i += n + 1;
  }
  std::fclose(out);
}

}  // namespace
