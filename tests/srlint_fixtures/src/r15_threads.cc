// R15: one writer thread — in src/ nothing names a lock, a thread-safety
// annotation, an atomic or a thread; the scrape server is the exempted
// exception.
#include <atomic>
#include <thread>

#include "check/thread_annotations.h"

namespace other {
struct Mutex {};
}  // namespace other

struct Positive {
  std::atomic<int> hits{0};  // srlint-expect: R15
  std::thread worker;  // srlint-expect: R15
  std::
      jthread joined;  // srlint-expect: R15
  silkroad::sr::Mutex mu;  // srlint-expect: R15
  int guarded SR_GUARDED_BY(mu) = 0;  // srlint-expect: R15
  void locked() SR_REQUIRES(mu);  // srlint-expect: R15
};

void positive(Positive& p) {
  const silkroad::sr::MutexLock lock(p.mu);  // srlint-expect: R15
  using silkroad::sr::Mutex;  // srlint-expect: R15
  Mutex unqualified;  // srlint-expect: R15
  (void)unqualified;
}

void negatives(Positive& p) {
  other::Mutex theirs;  // another namespace's Mutex — clean
  (void)theirs;
  int thread = 0;  // an unqualified `thread` is just a name — clean
  (void)thread;
  (void)std::this_thread::get_id();  // names no thread object — clean
  (void)p.hits;  // a member access names no type — clean
  SR_CHECK(p.guarded == 0);  // a check macro is no annotation — clean
  // std::atomic<int> in a comment is clean
  const char* s = "std::thread and sr::Mutex in a string are clean";
  (void)s;
}
