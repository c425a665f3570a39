#include "obs/blackbox.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/crc32.h"
#include "obs/thread_name.h"
#include "obs/trace.h"

#if defined(__GLIBC__) && __has_include(<execinfo.h>)
#include <execinfo.h>
#define GTV_HAVE_BACKTRACE 1
#endif

namespace gtv::obs::bb {

namespace {

// --- little-endian primitives (no allocation; signal-safe) ------------------------

inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline void put_f32(std::uint8_t* p, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  put_u32(p, bits);
}

inline float get_f32(const std::uint8_t* p) {
  const std::uint32_t bits = get_u32(p);
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

// CRC over a fully-assembled frame: bytes [4,12) + [16,32) + payload (the
// CRC field itself at [12,16) is excluded).
std::uint32_t frame_crc(const std::uint8_t* frame, std::size_t payload_len) {
  std::uint32_t c = crc32(frame + 4, 8);
  c = crc32_update(c, frame + 16, 16);
  return crc32_update(c, frame + kRecordHeaderBytes, payload_len);
}

// string field: u16 length + raw bytes. Returns bytes consumed, 0 = no fit.
std::size_t put_str(std::uint8_t* buf, std::size_t cap, const char* s, std::size_t len) {
  if (len > 0xffff || 2 + len > cap) return 0;
  put_u16(buf, static_cast<std::uint16_t>(len));
  std::memcpy(buf + 2, s, len);
  return 2 + len;
}

std::string get_str(const std::uint8_t* p, std::size_t len, std::size_t& off) {
  if (off + 2 > len) throw std::runtime_error("blackbox: truncated string field");
  const std::uint16_t n = get_u16(p + off);
  off += 2;
  if (off + n > len) throw std::runtime_error("blackbox: string field overruns payload");
  std::string s(reinterpret_cast<const char*>(p + off), n);
  off += n;
  return s;
}

// PC-list payloads (crash / thread stack) share one raw encoder so the
// signal handlers can build them without constructing the structs (whose
// std::vector member would allocate).
std::size_t encode_crash_raw(std::uint8_t* buf, std::size_t cap, std::uint32_t sig,
                             std::uint64_t addr, void* const* frames, int n) {
  if (n < 0) n = 0;
  std::size_t need = 16 + static_cast<std::size_t>(n) * 8;
  while (need > cap && n > 0) {
    --n;
    need -= 8;
  }
  if (need > cap) return 0;
  put_u32(buf, sig);
  put_u32(buf + 4, static_cast<std::uint32_t>(n));
  put_u64(buf + 8, addr);
  for (int i = 0; i < n; ++i) {
    put_u64(buf + 16 + 8 * static_cast<std::size_t>(i),
            reinterpret_cast<std::uint64_t>(frames[i]));
  }
  return need;
}

std::size_t encode_stack_raw(std::uint8_t* buf, std::size_t cap, std::uint64_t tid,
                             void* const* frames, int n) {
  if (n < 0) n = 0;
  std::size_t need = 16 + static_cast<std::size_t>(n) * 8;
  while (need > cap && n > 0) {
    --n;
    need -= 8;
  }
  if (need > cap) return 0;
  put_u64(buf, tid);
  put_u32(buf + 8, static_cast<std::uint32_t>(n));
  put_u32(buf + 12, 0);
  for (int i = 0; i < n; ++i) {
    put_u64(buf + 16 + 8 * static_cast<std::size_t>(i),
            reinterpret_cast<std::uint64_t>(frames[i]));
  }
  return need;
}

std::vector<std::uint64_t> decode_pcs(const std::uint8_t* p, std::size_t len,
                                      std::size_t off, std::uint32_t n) {
  if (off + static_cast<std::size_t>(n) * 8 > len) {
    throw std::runtime_error("blackbox: pc list overruns payload");
  }
  std::vector<std::uint64_t> pcs;
  pcs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) pcs.push_back(get_u64(p + off + 8 * i));
  return pcs;
}

std::atomic<BlackBox*> g_box{nullptr};

// Re-entrancy latch: a crash inside the crash handler must fall straight
// through to the re-raise, not recurse into the recorder.
std::atomic<int> g_crash_depth{0};

constexpr int kStackDumpSignal = SIGUSR1;
constexpr int kMaxBacktraceFrames = 48;

int capture_backtrace(void** frames, int max) {
#if defined(GTV_HAVE_BACKTRACE)
  return ::backtrace(frames, max);
#else
  (void)frames;
  (void)max;
  return 0;
#endif
}

void crash_handler(int sig, siginfo_t* info, void*) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box != nullptr && g_crash_depth.fetch_add(1, std::memory_order_relaxed) == 0) {
    void* frames[kMaxBacktraceFrames];
    const int n = capture_backtrace(frames, kMaxBacktraceFrames);
    const std::uint64_t addr =
        info != nullptr ? reinterpret_cast<std::uint64_t>(info->si_addr) : 0;
    std::uint8_t buf[kMaxRecordPayload];
    const std::size_t len = encode_crash_raw(buf, sizeof(buf),
                                             static_cast<std::uint32_t>(sig), addr,
                                             frames, n);
    box->append(RecordType::kCrash, buf, len);
    box->sync();
  }
  // Die with the correct wait status: restore the default disposition and
  // re-raise. For a genuine fault the pending signal (blocked while this
  // handler runs) is redelivered on return with the default action.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void stack_dump_handler(int, siginfo_t*, void*) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr) return;
  void* frames[kMaxBacktraceFrames];
  const int n = capture_backtrace(frames, kMaxBacktraceFrames);
  const std::uint64_t tid =
      static_cast<std::uint64_t>(::syscall(SYS_gettid));
  std::uint8_t buf[kMaxRecordPayload];
  const std::size_t len = encode_stack_raw(buf, sizeof(buf), tid, frames, n);
  box->append(RecordType::kThreadStack, buf, len);
}

// Signals every thread in this process to append its backtrace, then gives
// the handlers a beat to run. Called from the watchdog thread (ordinary
// context — readdir is fine here).
void dump_all_thread_stacks() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    // No /proc (non-Linux): dump at least the calling thread.
    ::raise(kStackDumpSignal);
    return;
  }
  const pid_t pid = ::getpid();
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const long tid = std::strtol(entry->d_name, nullptr, 10);
    if (tid <= 0) continue;
    ::syscall(SYS_tgkill, pid, static_cast<pid_t>(tid), kStackDumpSignal);
  }
  ::closedir(dir);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

std::uint64_t wall_clock_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

}  // namespace

const char* to_string(RecordType type) {
  switch (type) {
    case RecordType::kRunHeader: return "run_header";
    case RecordType::kPhase: return "phase";
    case RecordType::kLoss: return "loss";
    case RecordType::kAlert: return "alert";
    case RecordType::kNetEvent: return "net_event";
    case RecordType::kStall: return "stall";
    case RecordType::kThreadStack: return "thread_stack";
    case RecordType::kCrash: return "crash";
    case RecordType::kShutdown: return "shutdown";
  }
  return "unknown";
}

const char* to_string(NetEvent kind) {
  switch (kind) {
    case NetEvent::kRetry: return "retry";
    case NetEvent::kTimeout: return "timeout";
    case NetEvent::kCorruptFrame: return "corrupt_frame";
    case NetEvent::kConnect: return "connect";
    case NetEvent::kAccept: return "accept";
    case NetEvent::kDisconnect: return "disconnect";
  }
  return "unknown";
}

// --- typed payload codecs ---------------------------------------------------------

std::size_t RunHeaderRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 40) return 0;
  put_u64(buf, n_clients);
  put_u64(buf + 8, rounds);
  put_u64(buf + 16, seed);
  put_u64(buf + 24, wall_us);
  put_u64(buf + 32, pid);
  const std::size_t s = put_str(buf + 40, cap - 40, party.data(), party.size());
  return s == 0 ? 0 : 40 + s;
}

RunHeaderRecord RunHeaderRecord::decode(const std::uint8_t* p, std::size_t len) {
  if (len < 42) throw std::runtime_error("blackbox: run header too short");
  RunHeaderRecord r;
  r.n_clients = get_u64(p);
  r.rounds = get_u64(p + 8);
  r.seed = get_u64(p + 16);
  r.wall_us = get_u64(p + 24);
  r.pid = get_u64(p + 32);
  std::size_t off = 40;
  r.party = get_str(p, len, off);
  return r;
}

std::size_t PhaseRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 12) return 0;
  put_u64(buf, round);
  put_u32(buf + 8, phase);
  return 12;
}

PhaseRecord PhaseRecord::decode(const std::uint8_t* p, std::size_t len) {
  if (len < 12) throw std::runtime_error("blackbox: phase record too short");
  return PhaseRecord{get_u64(p), get_u32(p + 8)};
}

std::size_t LossRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 24) return 0;
  put_u64(buf, round);
  put_f32(buf + 8, d_loss);
  put_f32(buf + 12, g_loss);
  put_f32(buf + 16, gp);
  put_f32(buf + 20, wasserstein);
  return 24;
}

LossRecord LossRecord::decode(const std::uint8_t* p, std::size_t len) {
  if (len < 24) throw std::runtime_error("blackbox: loss record too short");
  return LossRecord{get_u64(p), get_f32(p + 8), get_f32(p + 12), get_f32(p + 16),
                    get_f32(p + 20)};
}

std::size_t AlertRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 12) return 0;
  put_u32(buf, severity);
  put_u64(buf + 4, round);
  const std::size_t s = put_str(buf + 12, cap - 12, rule.data(), rule.size());
  return s == 0 ? 0 : 12 + s;
}

AlertRecord AlertRecord::decode(const std::uint8_t* p, std::size_t len) {
  if (len < 14) throw std::runtime_error("blackbox: alert record too short");
  AlertRecord r;
  r.severity = get_u32(p);
  r.round = get_u64(p + 4);
  std::size_t off = 12;
  r.rule = get_str(p, len, off);
  return r;
}

std::size_t NetEventRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 4) return 0;
  put_u32(buf, static_cast<std::uint32_t>(kind));
  const std::size_t s = put_str(buf + 4, cap - 4, link.data(), link.size());
  return s == 0 ? 0 : 4 + s;
}

NetEventRecord NetEventRecord::decode(const std::uint8_t* p, std::size_t len) {
  if (len < 6) throw std::runtime_error("blackbox: net event record too short");
  NetEventRecord r;
  r.kind = static_cast<NetEvent>(get_u32(p));
  std::size_t off = 4;
  r.link = get_str(p, len, off);
  return r;
}

std::size_t StallRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 20) return 0;
  put_u64(buf, stalled_ms);
  put_u64(buf + 8, round);
  put_u32(buf + 16, phase);
  return 20;
}

StallRecord StallRecord::decode(const std::uint8_t* p, std::size_t len) {
  if (len < 20) throw std::runtime_error("blackbox: stall record too short");
  return StallRecord{get_u64(p), get_u64(p + 8), get_u32(p + 16)};
}

std::size_t ThreadStackRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  std::vector<void*> frames(pcs.size());
  for (std::size_t i = 0; i < pcs.size(); ++i) {
    frames[i] = reinterpret_cast<void*>(pcs[i]);
  }
  return encode_stack_raw(buf, cap, tid, frames.data(), static_cast<int>(frames.size()));
}

ThreadStackRecord ThreadStackRecord::decode(const std::uint8_t* p, std::size_t len) {
  if (len < 16) throw std::runtime_error("blackbox: thread stack record too short");
  ThreadStackRecord r;
  r.tid = get_u64(p);
  r.pcs = decode_pcs(p, len, 16, get_u32(p + 8));
  return r;
}

std::size_t CrashRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  std::vector<void*> frames(pcs.size());
  for (std::size_t i = 0; i < pcs.size(); ++i) {
    frames[i] = reinterpret_cast<void*>(pcs[i]);
  }
  return encode_crash_raw(buf, cap, signal, fault_addr, frames.data(),
                          static_cast<int>(frames.size()));
}

CrashRecord CrashRecord::decode(const std::uint8_t* p, std::size_t len) {
  if (len < 16) throw std::runtime_error("blackbox: crash record too short");
  CrashRecord r;
  r.signal = get_u32(p);
  r.fault_addr = get_u64(p + 8);
  r.pcs = decode_pcs(p, len, 16, get_u32(p + 4));
  return r;
}

std::size_t ShutdownRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 4) return 0;
  put_u32(buf, code);
  const std::size_t s = put_str(buf + 4, cap - 4, reason.data(), reason.size());
  return s == 0 ? 0 : 4 + s;
}

ShutdownRecord ShutdownRecord::decode(const std::uint8_t* p, std::size_t len) {
  if (len < 6) throw std::runtime_error("blackbox: shutdown record too short");
  ShutdownRecord r;
  r.code = get_u32(p);
  std::size_t off = 4;
  r.reason = get_str(p, len, off);
  return r;
}

// --- BlackBox ---------------------------------------------------------------------

BlackBox::BlackBox(const std::string& path, const RunHeaderRecord& header,
                   Options options)
    : path_(path) {
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "mapped-header atomics must be lock-free for signal safety");
  capacity_ = options.capacity_bytes < kMinRingCapacity ? kMinRingCapacity
                                                        : options.capacity_bytes;
  capacity_ = (capacity_ + 7) & ~std::size_t{7};
  map_len_ = kRingHeaderBytes + capacity_;

  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("blackbox: cannot create " + path);
  if (::ftruncate(fd, static_cast<off_t>(map_len_)) != 0) {
    ::close(fd);
    throw std::runtime_error("blackbox: cannot size " + path);
  }
  void* m = ::mmap(nullptr, map_len_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (m == MAP_FAILED) throw std::runtime_error("blackbox: mmap failed for " + path);
  map_ = static_cast<std::uint8_t*>(m);
  ring_ = map_ + kRingHeaderBytes;

  put_u64(map_, kFileMagic);
  put_u32(map_ + 8, kRingFormatVersion);
  put_u32(map_ + 12, static_cast<std::uint32_t>(kRingHeaderBytes));
  put_u64(map_ + 16, capacity_);
  cursor_ = reinterpret_cast<std::atomic<std::uint64_t>*>(map_ + 24);
  written_ = reinterpret_cast<std::atomic<std::uint64_t>*>(map_ + 32);
  dropped_ = reinterpret_cast<std::atomic<std::uint64_t>*>(map_ + 40);
  cursor_->store(0, std::memory_order_relaxed);
  written_->store(0, std::memory_order_relaxed);
  dropped_->store(0, std::memory_order_relaxed);

  // First record: who we are. Filling wall_us here also primes
  // TraceSink::now_us()'s epoch before any signal handler can need it.
  RunHeaderRecord run = header;
  if (run.wall_us == 0) run.wall_us = wall_clock_us();
  if (run.pid == 0) run.pid = static_cast<std::uint64_t>(::getpid());
  std::uint8_t buf[kMaxRecordPayload];
  const std::size_t len = run.encode(buf, sizeof(buf));
  append(RecordType::kRunHeader, buf, len);
}

BlackBox::~BlackBox() {
  if (map_ != nullptr) {
    ::msync(map_, map_len_, MS_ASYNC);
    ::munmap(map_, map_len_);
  }
}

std::uint8_t* BlackBox::reserve(std::size_t total) {
  for (;;) {
    std::uint64_t cur = cursor_->load(std::memory_order_relaxed);
    const std::uint64_t start = cur % capacity_;
    const std::uint64_t tail = capacity_ - start;
    const bool wrap = total > tail;
    const std::uint64_t advance = wrap ? tail + total : total;
    if (cursor_->compare_exchange_weak(cur, cur + advance, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      if (wrap) {
        // The wasted tail is smaller than one record; zero it so the
        // scanner never mistakes stale frame headers there for records.
        std::memset(ring_ + start, 0, tail);
        return ring_;
      }
      return ring_ + start;
    }
  }
}

void BlackBox::append(RecordType type, const std::uint8_t* payload, std::size_t len) {
  if (len > kMaxRecordPayload || (len > 0 && payload == nullptr)) {
    dropped_->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t padded = (len + 7) & ~std::size_t{7};
  std::uint8_t* frame = reserve(kRecordHeaderBytes + padded);
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);

  put_u16(frame + 4, static_cast<std::uint16_t>(type));
  put_u16(frame + 6, 0);
  put_u32(frame + 8, static_cast<std::uint32_t>(len));
  put_u64(frame + 16, seq);
  put_u64(frame + 24, TraceSink::now_us());
  if (len > 0) std::memcpy(frame + kRecordHeaderBytes, payload, len);
  if (padded > len) std::memset(frame + kRecordHeaderBytes + len, 0, padded - len);
  put_u32(frame + 12, frame_crc(frame, len));
  // Publish last: until the magic lands, scanners see an invalid frame.
  std::atomic_thread_fence(std::memory_order_release);
  reinterpret_cast<std::atomic<std::uint32_t>*>(frame)->store(
      kRecordMagic, std::memory_order_relaxed);
  written_->fetch_add(1, std::memory_order_relaxed);
}

void BlackBox::sync() const {
  if (map_ != nullptr) ::msync(map_, map_len_, MS_ASYNC);
}

std::uint64_t BlackBox::records_written() const {
  return written_->load(std::memory_order_relaxed);
}

std::uint64_t BlackBox::records_dropped() const {
  return dropped_->load(std::memory_order_relaxed);
}

BlackBox* BlackBox::open_global(const std::string& path, const RunHeaderRecord& header,
                                Options options) {
  BlackBox* box = new BlackBox(path, header, options);
  // The previous instance (tests re-opening) leaks deliberately: a signal
  // handler that raced the swap must never touch an unmapped region.
  g_box.exchange(box, std::memory_order_acq_rel);
  return box;
}

BlackBox* BlackBox::get() { return g_box.load(std::memory_order_acquire); }

// --- note_* helpers ---------------------------------------------------------------

void note_phase(std::uint64_t round, std::uint32_t phase) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr) return;
  std::uint8_t buf[16];
  const std::size_t len = PhaseRecord{round, phase}.encode(buf, sizeof(buf));
  box->append(RecordType::kPhase, buf, len);
}

void note_loss(std::uint64_t round, float d, float g, float gp, float w) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr) return;
  std::uint8_t buf[24];
  const std::size_t len = LossRecord{round, d, g, gp, w}.encode(buf, sizeof(buf));
  box->append(RecordType::kLoss, buf, len);
}

void note_alert(std::uint32_t severity, std::uint64_t round, const char* rule) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr || rule == nullptr) return;
  std::uint8_t buf[256];
  put_u32(buf, severity);
  put_u64(buf + 4, round);
  const std::size_t s = put_str(buf + 12, sizeof(buf) - 12, rule,
                                std::strlen(rule) > 200 ? 200 : std::strlen(rule));
  if (s == 0) return;
  box->append(RecordType::kAlert, buf, 12 + s);
}

void note_net_event(NetEvent kind, const char* link) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr || link == nullptr) return;
  std::uint8_t buf[256];
  put_u32(buf, static_cast<std::uint32_t>(kind));
  const std::size_t s = put_str(buf + 4, sizeof(buf) - 4, link,
                                std::strlen(link) > 200 ? 200 : std::strlen(link));
  if (s == 0) return;
  box->append(RecordType::kNetEvent, buf, 4 + s);
}

void note_shutdown(std::uint32_t code, const char* reason) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr) return;
  std::uint8_t buf[256];
  put_u32(buf, code);
  const char* text = reason == nullptr ? "" : reason;
  const std::size_t s = put_str(buf + 4, sizeof(buf) - 4, text,
                                std::strlen(text) > 200 ? 200 : std::strlen(text));
  if (s == 0) return;
  box->append(RecordType::kShutdown, buf, 4 + s);
  box->sync();
}

// --- signal handlers --------------------------------------------------------------

void install_crash_handlers() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;

#if defined(GTV_HAVE_BACKTRACE)
  // glibc backtrace lazily loads libgcc on first use (malloc + dlopen) —
  // do that now, outside signal context.
  void* warm[4];
  ::backtrace(warm, 4);
#endif

  // Alternate stack: a stack-overflow SIGSEGV cannot run its handler on
  // the exhausted stack.
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof(alt_stack);
  ::sigaltstack(&ss, nullptr);

  struct sigaction sa{};
  sa.sa_sigaction = crash_handler;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    ::sigaction(sig, &sa, nullptr);
  }

  struct sigaction dump{};
  dump.sa_sigaction = stack_dump_handler;
  dump.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&dump.sa_mask);
  ::sigaction(kStackDumpSignal, &dump, nullptr);
}

// --- StallWatchdog ----------------------------------------------------------------

struct StallWatchdog::ThreadBox {
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
};

StallWatchdog::StallWatchdog(const std::atomic<std::uint64_t>* round,
                             const std::atomic<std::uint32_t>* phase, Options options)
    : round_(round), phase_(phase), options_(options), thread_(new ThreadBox) {}

StallWatchdog::~StallWatchdog() {
  stop();
  delete thread_;
}

void StallWatchdog::start() {
  if (started_) return;
  started_ = true;
  install_crash_handlers();  // the stack-dump handler rides on the same install
  thread_->thread = std::thread([this] { run(); });
}

void StallWatchdog::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(thread_->mu);
    stopping_.store(true);
  }
  thread_->cv.notify_all();
  if (thread_->thread.joinable()) thread_->thread.join();
  started_ = false;
  stopping_.store(false);
}

void StallWatchdog::run() {
  set_current_thread_name("gtv-watchdog");
  auto progress = [this]() -> std::uint64_t {
    // Round/phase are the real signal (a stuck recv loop keeps appending
    // retry records, which must not mask the stall); fall back to the
    // recorder's seq when no status atomics were provided.
    if (round_ != nullptr || phase_ != nullptr) {
      const std::uint64_t r =
          round_ != nullptr ? round_->load(std::memory_order_relaxed) : 0;
      const std::uint64_t p =
          phase_ != nullptr ? phase_->load(std::memory_order_relaxed) : 0;
      return (r << 8) ^ p;
    }
    BlackBox* box = BlackBox::get();
    return box != nullptr ? box->next_seq() : 0;
  };

  std::uint64_t last = progress();
  auto last_change = std::chrono::steady_clock::now();
  bool dumped = false;
  std::unique_lock<std::mutex> lock(thread_->mu);
  while (!stopping_.load()) {
    thread_->cv.wait_for(lock, std::chrono::milliseconds(options_.poll_ms),
                         [this] { return stopping_.load(); });
    if (stopping_.load()) break;
    const std::uint64_t now_val = progress();
    const auto now = std::chrono::steady_clock::now();
    if (now_val != last) {
      last = now_val;
      last_change = now;
      dumped = false;
      continue;
    }
    const auto stalled =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - last_change);
    if (!dumped && stalled.count() >= options_.stall_ms) {
      stalls_.fetch_add(1, std::memory_order_relaxed);
      BlackBox* box = BlackBox::get();
      if (box != nullptr) {
        StallRecord rec;
        rec.stalled_ms = static_cast<std::uint64_t>(stalled.count());
        rec.round = round_ != nullptr ? round_->load(std::memory_order_relaxed) : 0;
        rec.phase = phase_ != nullptr ? phase_->load(std::memory_order_relaxed) : 0;
        std::uint8_t buf[24];
        box->append(RecordType::kStall, buf, rec.encode(buf, sizeof(buf)));
        if (options_.dump_stacks) {
          lock.unlock();
          dump_all_thread_stacks();
          lock.lock();
        }
        box->sync();
      }
      dumped = true;  // one dump per episode; re-arms on progress
    }
  }
}

// --- offline reader ---------------------------------------------------------------

ReadResult read_ring(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("blackbox: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (bytes.size() < kRingHeaderBytes) {
    throw std::runtime_error("blackbox: " + path + " is too small to be a ring file");
  }
  if (get_u64(bytes.data()) != kFileMagic) {
    throw std::runtime_error("blackbox: " + path + " has no GTVBBOX1 magic");
  }
  const std::uint32_t version = get_u32(bytes.data() + 8);
  if (version != kRingFormatVersion) {
    throw std::runtime_error("blackbox: " + path + " format version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kRingFormatVersion) + ")");
  }
  ReadResult out;
  out.info.capacity = static_cast<std::size_t>(get_u64(bytes.data() + 16));
  out.info.cursor = get_u64(bytes.data() + 24);
  out.info.records_written = get_u64(bytes.data() + 32);
  out.info.records_dropped = get_u64(bytes.data() + 40);

  const std::uint8_t* ring = bytes.data() + kRingHeaderBytes;
  const std::size_t ring_len =
      bytes.size() - kRingHeaderBytes < out.info.capacity
          ? bytes.size() - kRingHeaderBytes
          : out.info.capacity;

  std::size_t off = 0;
  while (off + kRecordHeaderBytes <= ring_len) {
    if (get_u32(ring + off) != kRecordMagic) {
      off += 8;
      continue;
    }
    const std::uint8_t* frame = ring + off;
    const std::uint16_t type = get_u16(frame + 4);
    const std::uint32_t payload_len = get_u32(frame + 8);
    const std::size_t padded = (static_cast<std::size_t>(payload_len) + 7) & ~std::size_t{7};
    if (type < 1 || type > static_cast<std::uint16_t>(RecordType::kShutdown) ||
        payload_len > kMaxRecordPayload ||
        off + kRecordHeaderBytes + padded > ring_len) {
      ++out.crc_rejects;
      off += 8;
      continue;
    }
    if (frame_crc(frame, payload_len) != get_u32(frame + 12)) {
      ++out.crc_rejects;
      off += 8;
      continue;
    }
    Record rec;
    rec.type = static_cast<RecordType>(type);
    rec.seq = get_u64(frame + 16);
    rec.t_us = get_u64(frame + 24);
    rec.payload.assign(frame + kRecordHeaderBytes,
                       frame + kRecordHeaderBytes + payload_len);
    out.records.push_back(std::move(rec));
    off += kRecordHeaderBytes + padded;
  }

  std::sort(out.records.begin(), out.records.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  for (const Record& rec : out.records) {
    if (rec.type == RecordType::kRunHeader && !out.has_run_header) {
      out.run_header = RunHeaderRecord::decode(rec.payload.data(), rec.payload.size());
      out.has_run_header = true;
    }
  }
  return out;
}

std::vector<std::string> validate(const ReadResult& ring) {
  std::vector<std::string> problems;
  if (ring.records.empty()) {
    problems.push_back("ring holds no valid records");
    return problems;
  }
  if (!ring.has_run_header) problems.push_back("no run header record retained");

  // Seqs: strictly monotone (records are sorted, so any equal neighbours
  // are duplicates), and contiguous over the retained window. The oldest
  // edge legitimately loses frames to ring overwrite; interior gaps can
  // only come from writers killed mid-append, so more than a handful means
  // the ring is damaged.
  std::uint64_t interior_gaps = 0;
  for (std::size_t i = 1; i < ring.records.size(); ++i) {
    const std::uint64_t prev = ring.records[i - 1].seq;
    const std::uint64_t cur = ring.records[i].seq;
    if (cur == prev) {
      problems.push_back("duplicate seq " + std::to_string(cur));
    } else if (cur != prev + 1) {
      interior_gaps += cur - prev - 1;
    }
  }
  if (interior_gaps > 4) {
    problems.push_back("ring is missing " + std::to_string(interior_gaps) +
                       " interior seqs");
  }

  // Every payload must decode as its type.
  for (const Record& rec : ring.records) {
    try {
      const std::uint8_t* p = rec.payload.data();
      const std::size_t n = rec.payload.size();
      switch (rec.type) {
        case RecordType::kRunHeader: RunHeaderRecord::decode(p, n); break;
        case RecordType::kPhase: PhaseRecord::decode(p, n); break;
        case RecordType::kLoss: LossRecord::decode(p, n); break;
        case RecordType::kAlert: AlertRecord::decode(p, n); break;
        case RecordType::kNetEvent: NetEventRecord::decode(p, n); break;
        case RecordType::kStall: StallRecord::decode(p, n); break;
        case RecordType::kThreadStack: ThreadStackRecord::decode(p, n); break;
        case RecordType::kCrash: CrashRecord::decode(p, n); break;
        case RecordType::kShutdown: ShutdownRecord::decode(p, n); break;
      }
    } catch (const std::exception& e) {
      problems.push_back("seq " + std::to_string(rec.seq) + ": " + e.what());
    }
  }
  return problems;
}

}  // namespace gtv::obs::bb
