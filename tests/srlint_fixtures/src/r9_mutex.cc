// R9: bare std::mutex family in src/ — every lock must go through the
// annotated sr:: wrappers so clang -Wthread-safety sees it.
#include <mutex>

#include "check/thread_annotations.h"

namespace my {
struct mutex {};  // a different mutex — my::mutex below is clean
}  // namespace my

void positive() {
  std::mutex mu;  // srlint-expect: R9
  std::
      mutex mu2;  // srlint-expect: R9
  const std::lock_guard<  // srlint-expect: R9
      std::mutex>  // srlint-expect: R9
      lk(mu);
  std::unique_lock<std::mutex> ul;  // srlint-expect: R9 R9
  (void)mu2;
  (void)ul;
}

void negatives() {
  silkroad::sr::Mutex mu;  // the annotated wrapper — srlint-expect: R15
  const silkroad::sr::MutexLock lock(mu);  // srlint-expect: R15
  my::mutex theirs;  // scoped in another namespace — clean
  (void)theirs;
  // std::mutex in a comment is clean
  const char* s = "std::lock_guard<std::mutex> in a string is clean";
  (void)s;
}
