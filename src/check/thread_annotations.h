// Clang thread-safety annotations (DESIGN.md §13) and the annotated mutex
// wrappers every library mutex must use (lint rule R9). The simulation thread
// is the only thread that touches a model object, so the one library lock is
// obs::ScrapeServer's, over the copy its server thread serves (lint rule R15).
//
// The macros expand to Clang's capability attributes when the compiler
// supports them and to nothing otherwise, so annotated code builds
// identically under gcc. Turn the analysis on with
// -DSILKROAD_THREAD_SAFETY=ON (requires Clang); it adds
// -Wthread-safety -Werror=thread-safety-analysis, making every guarded-field
// access without its lock a compile error instead of a race at runtime.
//
// Convention: a class owning shared state declares one `sr::Mutex mu_`
// (mutable when const accessors lock), marks each field it protects
// `SR_GUARDED_BY(mu_)`, and takes `sr::MutexLock lock(mu_)` in every public
// entry point. Private helpers called under the lock are annotated
// `SR_REQUIRES(mu_)` instead of re-locking. Never call back out of the class
// (user callbacks, other subsystems that may re-enter) while holding mu_ —
// collect the work under the lock, release, then call.
#pragma once

#include <mutex>

// Attribute dispatch: Clang defines these capability attributes; other
// compilers see empty macros. __has_attribute keeps ancient clangs working.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SR_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#endif
#endif
#ifndef SR_THREAD_ANNOTATION_ATTRIBUTE
#define SR_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability ("mutex").
#define SR_CAPABILITY(x) SR_THREAD_ANNOTATION_ATTRIBUTE(capability(x))
/// Marks an RAII type that acquires in its constructor, releases in its
/// destructor.
#define SR_SCOPED_CAPABILITY SR_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)
/// Field access requires holding `x`.
#define SR_GUARDED_BY(x) SR_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))
/// Dereferencing this pointer/smart-pointer field requires holding `x`.
#define SR_PT_GUARDED_BY(x) SR_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))
/// The function must be called with the listed capabilities held.
#define SR_REQUIRES(...) \
  SR_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
/// The function acquires the listed capabilities (held on return).
#define SR_ACQUIRE(...) \
  SR_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
/// The function releases the listed capabilities.
#define SR_RELEASE(...) \
  SR_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
/// The function tries to acquire; first argument is the success value.
#define SR_TRY_ACQUIRE(...) \
  SR_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
/// The function must be called with the listed capabilities NOT held
/// (deadlock documentation for callbacks-under-lock hazards).
#define SR_EXCLUDES(...) \
  SR_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))
/// The function returns a reference to the capability guarding its result.
#define SR_RETURN_CAPABILITY(x) \
  SR_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))
/// Escape hatch: the function's locking is intentionally invisible to the
/// analysis. Every use needs a comment explaining why.
#define SR_NO_THREAD_SAFETY_ANALYSIS \
  SR_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace silkroad::sr {

/// std::mutex with capability annotations. Library code must use this (and
/// MutexLock below) instead of bare std::mutex/std::lock_guard — lint rule
/// R9 — so -Wthread-safety coverage cannot silently decay as code is added.
class SR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SR_ACQUIRE() { mu_.lock(); }
  void unlock() SR_RELEASE() { mu_.unlock(); }
  bool try_lock() SR_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  // The one bare std::mutex in the library (R9 manifest exemption): this is
  // the wrapper the rule points everyone at.
  std::mutex mu_;
};

/// RAII lock over sr::Mutex (std::lock_guard equivalent). Scoped acquisition
/// is the only locking style the analysis can follow across early returns.
class SR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SR_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SR_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace silkroad::sr
